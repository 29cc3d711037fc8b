"""Spans around every call into the library, recorded from outside it.

:meth:`Tracer.install` replaces each public function of the specshrink
modules with a wrapper that records one span per call; the acceptance
criterion functions (``acceptance._crit_*``) and the CLI subcommand
handlers (``cli._cmd_*``) are wrapped too.  A function is wrapped once and
the wrapper is bound under every name that refers to it: the module
attribute, names bound by ``from ... import`` (``theta.apply_function``)
and values of module-level dicts (``cli._DISPATCH``).
:meth:`Tracer.uninstall` puts the originals back.

A span is (name, start, end, parent span, pass id, n).  Spans stay in
flat arrays while the passes run and are written out by :meth:`save`.
"""

from __future__ import annotations

import functools
import types
from array import array
from time import perf_counter

import numpy as np

MODULES = ("core", "spaces", "shrinkers", "selectors", "configspace", "calculus",
           "theta", "reconstruct", "acceptance", "cli")

# private functions that are layer boundaries: prefix -> span name prefix
_PRIVATE = {"acceptance": ("_crit_", "crit_"), "cli": ("_cmd_", "")}


def _span_name(fn) -> str | None:
    """``module.function`` for a function the tracer wraps, else None."""
    owner = getattr(fn, "__module__", "") or ""
    if not isinstance(fn, types.FunctionType) or not owner.startswith("specshrink."):
        return None
    module = owner.split(".", 1)[1]
    if module not in MODULES:
        return None
    name = fn.__name__
    if name.startswith("_"):
        prefix, renamed = _PRIVATE.get(module, (None, None))
        if prefix is None or not name.startswith(prefix):
            return None
        name = renamed + name[len(prefix):]
    return f"{module}.{name}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pass_id = array("h")
        self.n_dim = array("h")
        self._stack: list[int] = []
        self.pass_k = -1     # set by the runner for each traced pass
        self.n = -1          # set by the scale workload for each dimension
        self._wrappers: dict[int, types.FunctionType] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.pass_id.append(tracer.pass_k)
            tracer.n_dim.append(tracer.n)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def install(self):
        import specshrink
        for modname in MODULES:
            module = getattr(specshrink, modname)
            for attr, value in list(vars(module).items()):
                name = _span_name(value)
                if name is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, name))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        name = _span_name(item)
                        if name is not None:
                            self._patched.append((value, key, item))
                            value[key] = self._wrap(item, name)

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int16).copy(),
            "n": np.frombuffer(self.n_dim, dtype=np.int16).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per traced pass: for each span name its call count, inclusive
        seconds and self seconds (duration minus the time covered by child
        spans; children never overlap, since one thread runs the pass)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        out = {}
        for k in np.unique(a["pass_id"]):
            sel = a["pass_id"] == k
            ids = a["name_id"][sel]
            calls = np.bincount(ids, minlength=len(self.names))
            incl = np.bincount(ids, weights=dur[sel], minlength=len(self.names))
            own = np.bincount(ids, weights=self_s[sel], minlength=len(self.names))
            out[int(k)] = {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                                  "self_s": float(own[i])}
                           for i, name in enumerate(self.names) if calls[i]}
        return out
