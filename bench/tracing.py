"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` replaces module attributes at their call sites with
wrappers that record one span per call: name, start, end, parent span,
request id, whether the call returned, and an optional size (the |delta rho|
of an ODE segment).  Spans stay in memory until ``write``; ``summarize``
derives calls, total and self times (duration minus the time covered by
direct child spans) per span name.

The program is single-threaded and has no queues or locks, so there is no
wait time to record at any layer.
"""

from __future__ import annotations

import json
import time

import coulwkb.airy as airy
import coulwkb.cli as cli
import coulwkb.contour as contour
import coulwkb.exactref as exactref
import coulwkb.wkbcore as wkbcore


def _ode_length(args, kwargs) -> float:
    start, end = args[2], args[4]
    return abs(complex(end) - complex(start))


# (module, attribute, span name, size function); one span name may cover the
# same function imported into several modules
CALL_SITES = (
    (cli, "cmd_sweep", "cli.sweep", None),
    (cli, "wkb_quad", "wkbcore.wkb_quad", None),
    (wkbcore, "phi_jet", "wkbcore.phi_jet", None),
    (contour, "phi_jet_terms", "wkbcore.phi_jet", None),
    (wkbcore, "_assemble_quad", "wkbcore.assemble", None),
    (contour, "_assemble_quad", "wkbcore.assemble", None),
    (airy, "series_quad", "airy.series", None),
    (airy, "asymptotic_quad", "airy.asymptotic", None),
    (exactref, "exact_quad_grid", "exactref.exact_quad_grid", None),
    (exactref, "exact_quad", "exactref.exact_quad", None),
    (exactref, "_f_series_core", "exactref.f_series", None),
    (exactref, "h_asymptotic", "exactref.h_asymptotic", None),
    (exactref, "ode_propagate", "exactref.ode_propagate", _ode_length),
    (exactref, "log_gamma", "complexops.log_gamma", None),
    (contour, "continue_quad", "contour.continue_quad", None),
    (contour, "_step", "contour.step", None),
    (contour, "_match_sheets", "contour.match_sheets", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent, request, ok, size)
        self.request = -1
        self._stack: list = []
        self._saved: list = []
        self.t0 = time.perf_counter()

    def _wrap(self, fn, name: str, size_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                size = size_fn(args, kwargs) if size_fn else 0.0
                spans[sid] = (name, start, end, parent, self.request, ok, size)

        return traced

    def install(self) -> None:
        for module, attr, name, size_fn in CALL_SITES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, size_fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def summarize(self) -> dict:
        """Per span name: calls, ok calls, total s, self s, summed size."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for sid, (name, start, end, _, _, ok, size) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "ok": 0, "total_s": 0.0,
                                      "self_s": 0.0, "size": 0.0})
            s["calls"] += 1
            s["ok"] += ok
            s["total_s"] += end - start
            s["self_s"] += end - start - child[sid]
            s["size"] += size
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the tracer's creation."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, req, ok, size) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": round(start - self.t0, 9),
                    "end": round(end - self.t0, 9), "parent": parent,
                    "request": req, "ok": ok, "size": size}) + "\n")
