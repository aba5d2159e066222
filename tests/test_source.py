"""Guards over the library source itself."""

import ast
import pathlib

import csgroups

PACKAGE = pathlib.Path(csgroups.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_library_has_no_assert_statements():
    """`python -O` strips asserts, so an invariant the library relies on
    must be an explicit raise."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _top_level_names(tree):
    """Each public name a module binds at top level, with the line span
    of its binding statement."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, (node.lineno, node.end_lineno)


def _references(tree, line=None):
    """(name, line) for every name loaded, attribute read or name
    imported in a module, and in each string constant that parses as
    Python (the benchmark runs some of its code from strings)."""
    for node in ast.walk(tree):
        at = line or getattr(node, "lineno", 0)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, at
        elif isinstance(node, ast.Attribute):
            yield node.attr, at
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, at
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                code = ast.parse(node.value)
            except (SyntaxError, ValueError):
                continue
            yield from _references(code, at)


def test_every_public_name_has_a_program_caller():
    """A public top-level name of the package must be used somewhere in
    the package or the benchmark, outside its own definition and the
    package's re-export; code that only tests reach is not needed.  The
    `suite_<name>` entry points, which the acceptance gate calls, are the
    one exemption."""
    program = [p for p in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
               if not p.name.startswith("test_")]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in program}
    refs = {p: list(_references(tree)) for p, tree in trees.items()
            if p != PACKAGE / "__init__.py"}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, (first, last) in _top_level_names(trees[path]):
            if name.startswith("suite_"):
                continue
            if not any(ref == name and not (p == path and first <= line <= last)
                       for p, found in refs.items() for ref, line in found):
                unused.append(f"{path.stem}.{name}")
    assert unused == [], unused
