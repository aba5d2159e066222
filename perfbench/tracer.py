"""
Call tracer for the csgroups layers, installed from outside the library.

It replaces every public function of each csgroups module with a
wrapper, wherever that function is bound: under its own module and
under every `from ... import ...` name in the other modules (for
example `inverse` inside `braids`, or the `groupoid` names inside
`operad`).  It also wraps the public methods of `CsgInstance`,
`SymmetricCsg` and `BraidCsg`, and files each method call under the
family of the instance it runs on.  Calls that look a function up by
any of these names therefore reach the wrapper.

Every wrapped call counts one call and adds its self time: its
duration minus the time of the wrapped calls nested inside it, kept on
a call stack.  Counts and times stay in memory, to be read after
`uninstall`.  Some functions record more: the share of calls whose
arguments were already seen (`REPEAT_TRACKED`), the total length of
the free-group images (`braids.artin_act`) and the equality cost by
word length (`braids.braids_equal`).

The free-group plumbing `braids.fg_invert` and `braids.fg_concat` is
left unwrapped: it runs only inside `artin_act`, once per letter, and
its time counts as `artin_act` self time.
"""

from __future__ import annotations

import time
import types

MODULES = ("perms", "braids", "core", "groupoid", "operad", "kan", "barcx",
           "suites", "cli")
INSTANCE_CLASSES = ("CsgInstance", "SymmetricCsg", "BraidCsg")
UNWRAPPED = frozenset({"braids.fg_invert", "braids.fg_concat"})
# Functions whose arguments are remembered, for the repeat share.
REPEAT_TRACKED = ("perms.", "braids.braids_equal")
# Upper word lengths (letters of the longer operand) of the equality
# cost buckets; longer words fall in the last bucket.
EQUAL_BUCKETS = ((8, "le8"), (16, "le16"), (None, "gt16"))


class Stat:
    """Counters of one traced function."""

    __slots__ = ("calls", "self_s", "raised", "repeats")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0
        self.repeats = 0


class Tracer:
    """Wraps the csgroups entry points while installed; see the module
    docstring for what it records."""

    def __init__(self, package):
        self.package = package
        self.stats: dict[str, Stat] = {}
        self.image_symbols = 0
        self.equal_us: dict[str, list[float]] = {label: [] for _, label in EQUAL_BUCKETS}
        self._stack = [0.0]
        self._seen: dict[str, set] = {}
        self._restore: list[tuple[object, str, object]] = []

    def stat(self, key: str) -> Stat:
        if key not in self.stats:
            self.stats[key] = Stat()
        return self.stats[key]

    # Installation.

    def install(self):
        modules = {name: getattr(self.package, name) for name in MODULES}
        module_names = {f"{self.package.__name__}.{name}": name for name in MODULES}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                owner = module_names.get(value.__module__)
                key = f"{owner}.{value.__name__}"
                if owner is None or key in UNWRAPPED:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap_function(key, value)
                self._replace(mod, attr, wrappers[id(value)])
        for cls_name in INSTANCE_CLASSES:
            cls = getattr(modules["core"], cls_name)
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and isinstance(value, types.FunctionType):
                    self._replace(cls, attr, self._wrap_method(attr, value))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # Wrappers.  They share one shape: push a child-time slot, time the
    # call, charge the duration minus the children to this function and
    # the whole duration to the caller's child-time slot.

    def _wrap_function(self, key, fn):
        if key == "braids.artin_act":
            return self._wrap_artin(key, fn)
        if key == "braids.braids_equal":
            return self._wrap_equal(key, fn)
        if key.startswith(REPEAT_TRACKED):
            return self._wrap_repeat(key, fn)
        stat, stack, perf = self.stat(key), self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dt = perf() - t0
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                stack[-1] += dt
        traced.__wrapped__ = fn
        return traced

    def _wrap_repeat(self, key, fn):
        stat, stack, perf = self.stat(key), self._stack, time.perf_counter
        seen = self._seen.setdefault(key, set())

        def traced(*args, **kwargs):
            seen_key = (args, tuple(kwargs.items())) if kwargs else args
            if seen_key in seen:
                stat.repeats += 1
            else:
                seen.add(seen_key)
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                stack[-1] += dt
        traced.__wrapped__ = fn
        return traced

    def _wrap_artin(self, key, fn):
        stat, stack, perf = self.stat(key), self._stack, time.perf_counter

        def traced(word):
            stack.append(0.0)
            t0 = perf()
            try:
                images = fn(word)
            finally:
                dt = perf() - t0
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                stack[-1] += dt
            self.image_symbols += sum(map(len, images))
            return images
        traced.__wrapped__ = fn
        return traced

    def _wrap_equal(self, key, fn):
        repeat = self._wrap_repeat(key, fn)
        perf = time.perf_counter

        def traced(a, b):
            t0 = perf()
            result = repeat(a, b)
            dt = perf() - t0
            length = max(len(a.letters), len(b.letters))
            for limit, label in EQUAL_BUCKETS:
                if limit is None or length <= limit:
                    self.equal_us[label].append(dt * 1e6)
                    break
            return result
        traced.__wrapped__ = fn
        return traced

    def _wrap_method(self, attr, fn):
        by_family = {family: self.stat(f"core.{family}.{attr}")
                     for family in ("symm", "braid")}
        stack, perf = self._stack, time.perf_counter

        def traced(inst, *args, **kwargs):
            stat = by_family[inst.name]
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(inst, *args, **kwargs)
            finally:
                dt = perf() - t0
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                stack[-1] += dt
        traced.__wrapped__ = fn
        return traced
