"""Outside-in span tracing of the qmac layers.

The program carries no instrumentation of its own, so the traced run wraps
the public functions of each layer module from here: every module-level
attribute that holds one of the originals (in the defining module and in
every module that imported the name, plus module-level dicts such as the
suite table in ``qmac.checks``) is replaced by a wrapper that records a span
``(name, start, end, parent)``.  ``numpy.linalg.eigh``/``eigvalsh`` are
wrapped as the ``operators`` eigensolver, with their work counted as
batch * d**3.

Spans stay in memory until :meth:`Tracer.dump`; :func:`summarize` turns a
dump into per-name call counts, self times and inclusive times.

Imports only the standard library at module level, so that importing it in
the child does not change what ``import qmac.cli`` costs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

LAYERS = ("cli", "channel", "operators", "entropy", "region", "coding", "checks")

# Methods are not module attributes, so they are named explicitly.
METHODS = {
    "channel": ("BlockChannel.state_for_words",),
    "coding": ("SequentialDecoder.stage_states", "SequentialDecoder.stage_instrument",
               "TenderInstrument.from_povm"),
}

EIG_FUNCTIONS = ("eigh", "eigvalsh")

WRAPPED_MARK = "__bench_wrapped__"


def _eig_work(args) -> int:
    shape = getattr(args[0], "shape", None) if args else None
    if not shape or len(shape) < 2:
        return 0
    batch = 1
    for n in shape[:-2]:
        batch *= int(n)
    return batch * int(shape[-1]) ** 3


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        sname, sparent, sstart, send = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        counters = self.counters
        clock = time.perf_counter
        is_eig = name.startswith("operators.numpy.")
        tuples = name == "coding.average_error"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(sname)
            sname.append(nid)
            sparent.append(stack[-1] if stack else -1)
            sstart.append(0.0)
            send.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                sstart[idx] = start
                send[idx] = end
            if is_eig:
                counters["eig_work"] = counters.get("eig_work", 0) + _eig_work(args)
            elif tuples:
                counters["tuples"] = (counters.get("tuples", 0)
                                      + int(getattr(result, "messages_evaluated", 0)))
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def install(self) -> None:
        """Wrap every layer function, wherever a qmac module refers to it."""
        import numpy.linalg

        originals: dict[int, object] = {}   # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules.get(f"qmac.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (callable(obj) and not isinstance(obj, type) and not attr.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__):
                    originals[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(raw.__func__, f"{layer}.{path}")))
                else:
                    setattr(cls, meth, self.wrap(raw, f"{layer}.{path}"))
        for attr in EIG_FUNCTIONS:
            originals[id(getattr(numpy.linalg, attr))] = self.wrap(
                getattr(numpy.linalg, attr), f"operators.numpy.{attr}")
            setattr(numpy.linalg, attr, originals[id(getattr(numpy.linalg, attr))])

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qmac" or name.startswith("qmac.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and not hasattr(obj, WRAPPED_MARK):
                    setattr(mod, attr, originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in originals and callable(val):
                            obj[key] = originals[id(val)]

    def dump(self, path: str, wall_s: float) -> None:
        """Write the spans (binary arrays) and a JSON header next to them."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "count": len(self.span_name),
                       "counters": self.counters, "wall_s": wall_s}, fh)


def count_wrapped() -> int:
    """Number of wrapped callables reachable from the qmac modules and numpy.linalg."""
    found = 0
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qmac" or n.startswith("qmac.") or n == "numpy.linalg")]
    for mod in mods:
        for obj in list(vars(mod).values()):
            if hasattr(obj, WRAPPED_MARK):
                found += 1
            elif isinstance(obj, type):
                found += sum(hasattr(getattr(v, "__func__", v), WRAPPED_MARK)
                             for v in vars(obj).values())
    return found


def load(path: str) -> dict:
    """Read a dump written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        head = json.load(fh)
    n = head["count"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    head["spans"] = arrays
    return head


def summarize(dump: dict, inclusive_groups: dict[str, tuple[str, ...]]) -> dict:
    """Per-name calls and self time, plus inclusive time of named groups.

    Self time is a span's duration minus the durations of its direct
    children.  A group's inclusive time sums the spans of the group that
    have no ancestor in the same group.
    """
    names = dump["names"]
    sname, sparent, sstart, send = dump["spans"]
    n = len(sname)
    child = [0.0] * n
    for i in range(n):
        p = sparent[i]
        if p >= 0:
            child[p] += send[i] - sstart[i]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i in range(n):
        name = names[sname[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (send[i] - sstart[i]) - child[i]
    name_ids = {name: k for k, name in enumerate(names)}
    inclusive: dict[str, float] = {}
    for group, members in inclusive_groups.items():
        ids = {name_ids[m] for m in members if m in name_ids}
        total = 0.0
        for i in range(n):
            if sname[i] not in ids:
                continue
            p = sparent[i]
            while p >= 0 and sname[p] not in ids:
                p = sparent[p]
            if p < 0:
                total += send[i] - sstart[i]
        inclusive[group] = total
    return {"calls": calls, "self_s": self_s, "inclusive_s": inclusive,
            "counters": dump["counters"], "wall_s": dump["wall_s"]}
