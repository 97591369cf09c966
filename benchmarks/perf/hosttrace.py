"""Host-time tracing from outside the program: spans and self time.

Two instruments, both installed and removed by the benchmark alone:

* :class:`Spans` wraps the module-level names of ``suite.BOUNDARIES``
  in every loaded ``repro`` module that holds them, recording a host
  span (name, start, end, parent) per call.  Spans stay in memory and
  are written once, as a Chrome-trace host track, when the rep ends.
* :func:`self_time_by_layer` sums a ``cProfile`` run's self time by
  source package.  The profile leaves C functions out
  (``builtins=False``), so their time stays with the Python function
  that called them: numpy work done for the interpreter is ``runtime``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Dict, List, Optional

from suite import BOUNDARIES, LAYERS

_SEP = os.sep


def layer_of(code) -> Optional[str]:
    """The layer a profiled code object belongs to: ``other`` outside
    the eight, ``None`` for code without a source file of its own
    (dataclass-generated methods, C functions)."""
    filename = getattr(code, "co_filename", "<C>")
    if filename.startswith("<"):
        return None
    path = filename.replace(_SEP, "/")
    for prefix, layer in LAYERS:
        if f"/repro/{prefix}/" in path:
            return layer
    return "other"


def self_time_by_layer(entries) -> Dict[str, float]:
    """Self seconds per layer from ``cProfile.Profile.getstats()``.

    Reads the raw entries, not ``pstats``: ``pstats`` keys functions by
    (file, line, name), so the generated ``__init__`` of every dataclass
    lands on one key and all but one are dropped.  Code without a file
    is charged to the layers of its callers, in the proportions the
    profiler recorded per caller.
    """
    out = {layer: 0.0 for _p, layer in LAYERS}
    out["other"] = 0.0
    unowned = {}
    for entry in entries:
        layer = layer_of(entry.code)
        if layer is None:
            unowned[entry.code] = entry.inlinetime
        else:
            out[layer] += entry.inlinetime
    for entry in entries:
        caller = layer_of(entry.code) or "other"
        for sub in entry.calls or ():
            if sub.code in unowned:
                out[caller] += sub.inlinetime
                unowned[sub.code] -= sub.inlinetime
    # What no caller record covers (a call from C) stays with ``other``.
    out["other"] += sum(max(0.0, left) for left in unowned.values())
    return out


class Spans:
    """Boundary wrappers recording nested host spans.

    Use as a context manager: entering wraps every boundary, leaving
    restores the original objects, even when the rep raised.
    """

    def __init__(self):
        #: (name, start_s, end_s, parent index or -1), in start order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self._t0 = 0.0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return wrapper

    def __enter__(self) -> "Spans":
        self._t0 = time.perf_counter()
        for modname, attr in BOUNDARIES:
            # The warm-up rep has loaded every module the rep calls
            # into; one still absent holds no boundary this rep crosses.
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(attr, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(attr, orig)
            # Callers bind the name at import time, so patch every
            # loaded repro module that holds this very function.
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "") or ""
                if (name == "repro" or name.startswith("repro.")) and (
                    other.__dict__.get(attr) is orig
                ):
                    self._patched.append((other, attr, orig))
                    setattr(other, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def totals(self) -> Dict[str, float]:
        """Seconds per boundary name, summed over its calls."""
        out = {attr: 0.0 for _m, attr in BOUNDARIES}
        for name, start, end, _parent in self.spans:
            out[name] += end - start
        return out

    def chrome_trace(self, label: str) -> Dict:
        """The spans as a Chrome ``trace_event`` document (one host track)."""
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": f"host: {label}"}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "benchmark"}},
        ]
        for idx, (name, start, end, parent) in enumerate(self.spans):
            events.append({
                "name": name,
                "cat": "host",
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (start - self._t0) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {
                    "id": idx,
                    "parent_id": parent,
                    "parent": self.spans[parent][0] if parent >= 0 else None,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str, label: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(label), fh)
            fh.write("\n")
