"""Guards over the library source itself."""

import ast
import pathlib

import csgroups


def test_library_has_no_assert_statements():
    """`python -O` strips asserts, so an invariant the library relies on
    must be an explicit raise."""
    found = []
    for path in sorted(pathlib.Path(csgroups.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
