"""Guards over the library source itself."""

import ast
import builtins
import pathlib

import csgroups
from csgroups import core

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
    package's re-export; code that only tests reach is not needed.
    There is no exemption: tests run suites through `run_suite`."""
    program = [p for p in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
               if not p.name.startswith("test_")]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in program}
    refs = {p: list(_references(tree)) for p, tree in trees.items()
            if p != PACKAGE / "__init__.py"}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, (first, last) in _top_level_names(trees[path]):
            if not any(ref == name and not (p == path and first <= line <= last)
                       for p, found in refs.items() for ref, line in found):
                unused.append(f"{path.stem}.{name}")
    assert unused == [], unused


def _own_nodes(func):
    """The nodes of a function's body, without those of the functions
    and lambdas nested in it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_checkers_record_into_the_callers_tally():
    """`core.Tally` is the one accumulator: a top-level `check_*`
    function takes the caller's tally first, records into it and
    returns nothing, so no verdict bypasses the tally."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("check_")):
                continue
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            returns = any(isinstance(n, (ast.Yield, ast.YieldFrom))
                          or isinstance(n, ast.Return) and n.value is not None
                          for n in _own_nodes(node))
            if params[:1] != ["tally"] or returns:
                found.append(f"{path.stem}.{node.name}")
    assert found == [], found


def _caught_names(tree):
    """Each exception name an `except` clause in a module catches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                if isinstance(t, ast.Name):
                    yield t.id
                elif isinstance(t, ast.Attribute):
                    yield t.attr


def test_every_exception_class_is_caught_by_the_program():
    """An exception class defined in the package must be caught by name
    somewhere in the package or the benchmark; a class that only tests
    catch is a concept no caller uses."""
    exceptions = {name for name in dir(builtins)
                  if isinstance(getattr(builtins, name), type)
                  and issubclass(getattr(builtins, name), BaseException)}
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id in exceptions for b in node.bases):
                exceptions.add(node.name)
                defined.append((path.stem, node.name))
    program = [p for p in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
               if not p.name.startswith("test_")]
    caught = {name for p in program
              for name in _caught_names(ast.parse(p.read_text(), filename=str(p)))}
    assert defined, "no exception class found"
    assert [f"{stem}.{name}" for stem, name in defined if name not in caught] == []


def test_symmetric_elements_are_built_only_by_the_interning_helper():
    """`SymmetricCsg` constructs a `CsgElement` only in `_intern`, so no
    second construction path bypasses the interned elements."""
    tree = ast.parse((PACKAGE / "core.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "SymmetricCsg")
    builders = set()
    for item in cls.body:
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "CsgElement" for n in ast.walk(item)):
            builders.add(getattr(item, "name", f"line {item.lineno}"))
    assert builders == {"_intern"}, builders


def test_shared_instance_operations_keep_no_loop():
    """No method of `CsgInstance` loops: each family inserts with one
    kernel per operation, so a per-strand loop cannot come back into
    the shared operations unnoticed."""
    tree = ast.parse((PACKAGE / "core.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "CsgInstance")
    looping = {item.name for item in cls.body if isinstance(item, ast.FunctionDef)
               and any(isinstance(n, (ast.For, ast.While, ast.comprehension))
                       for n in ast.walk(item))}
    assert looping == set(), looping


def test_one_strand_insertions_are_written_once():
    """`CsgInstance` derives the degeneracy and the end insertions from
    each family's `_cable` and `_pad`: no family binds `s_left` or
    `s_right`, and only `SymmetricCsg` binds `degeneracy` (its arrow
    sources share that row).  So a per-family copy of a one-strand
    insertion cannot come back unnoticed."""
    def family(cls):
        return [cls] + [c for sub in cls.__subclasses__() for c in family(sub)]
    owners = {name: {cls.__name__ for cls in family(core.CsgInstance) if name in vars(cls)}
              for name in ("degeneracy", "s_left", "s_right")}
    assert owners == {"degeneracy": {"CsgInstance", "SymmetricCsg"},
                      "s_left": {"CsgInstance"}, "s_right": {"CsgInstance"}}, owners


def test_arrows_are_built_only_by_the_interning_helper():
    """The package constructs a `GroupoidArrow` only in `groupoid.arrow`,
    so no second construction path bypasses the interned arrows."""
    builders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if any(isinstance(n, ast.Call) and "GroupoidArrow" in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None))
                   for n in ast.walk(node)):
                builders.add(f"{path.stem}.{getattr(node, 'name', node.lineno)}")
    assert builders == {"groupoid.arrow"}, builders


def _label(path, node):
    """module.name of a top-level statement: the name it defines or
    first assigns, else its line."""
    name = getattr(node, "name", None)
    if name is None and isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
        name = node.targets[0].id
    return f"{path.stem}.{name or node.lineno}"


def _aliases(tree, attrs):
    """The top-level names a module binds to an expression that reads
    one of the attributes `attrs`, such as `_new = object.__new__`."""
    return {t.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)
            and any(isinstance(n, ast.Attribute) and n.attr in attrs
                    for n in ast.walk(node.value))}


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_braid_words_are_built_only_by_the_listed_builders():
    """The package checks a `BraidWord` once, at the boundary: the
    checked constructor runs only where letters come from outside, and
    `braids._word`, which skips the check, only in the builders whose
    letters are valid by construction.  Only `_word` makes a word
    without its constructor (a call that takes the class, such as
    `object.__new__(BraidWord)` under any name) or fills its slots (a
    slot descriptor's `__set__`, a name bound to one, or a call that
    names the field `strands` or `letters`, such as
    `object.__setattr__`).  A third construction path, or a builder
    moving from one list to another, fails here."""
    builders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        setters = _aliases(tree, ("__set__",))
        for node in tree.body:
            for n in ast.walk(node):
                if isinstance(n, ast.Attribute) and n.attr == "__set__":
                    kind = "slot setter"
                elif not isinstance(n, ast.Call):
                    continue
                elif _name(n.func) in ("BraidWord", "_word"):
                    kind = _name(n.func)
                elif _name(n.func) in setters or any(
                        isinstance(a, ast.Constant) and a.value in ("strands", "letters")
                        for a in n.args):
                    kind = "slot setter"
                elif _name(n.func) != "isinstance" and any(
                        _name(a) == "BraidWord" for a in n.args):
                    kind = "no constructor"
                else:
                    continue
                builders.setdefault(kind, set()).add(_label(path, node))
    assert builders == {
        "BraidWord": {"braids.empty_word", "braids.generator", "braids.permutation_braid",
                      "cli._ExprParser"},
        "_word": {f"braids.{name}" for name in (
            "concat", "invert_word", "reduced_word", "face_word", "_cable_word",
            "_pad_word", "random_word")},
        "no constructor": {"braids._word"},
        "slot setter": {"braids._set_strands", "braids._set_letters", "braids._word"},
    }, builders


def test_braid_elements_are_their_words():
    """A braid element is the `BraidWord` its `braids` kernel builds:
    `BraidCsg` names no `CsgElement` and reads no `__new__` or
    `__setattr__`, and `core` binds no name to either, so no wrapper and
    no second construction path can come back unnoticed."""
    tree = ast.parse((PACKAGE / "core.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "BraidCsg")
    named = {_name(n) for n in ast.walk(cls) if isinstance(n, (ast.Name, ast.Attribute))}
    assert named & {"CsgElement", "__new__", "__setattr__"} == set(), named
    assert _aliases(tree, ("__new__", "__setattr__")) == set()


def test_fill_error_is_raised_only_by_lift_horn():
    """`kan.lift_horn` is the one owner of a lift's verification: it
    checks the projection and every face of the product, which also
    covers the filler, so no other function raises `FillError`."""
    raisers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            for n in ast.walk(node):
                if not isinstance(n, ast.Raise) or n.exc is None:
                    continue
                exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                if "FillError" in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                    raisers.add(f"{path.stem}.{getattr(node, 'name', node.lineno)}")
    assert raisers == {"kan.lift_horn"}, raisers
