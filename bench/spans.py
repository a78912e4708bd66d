"""Span tracing of qcnet's layers from outside the package.

``Tracer.install`` replaces each traced function at every module
attribute (and class attribute) of the ``qcnet`` package that binds it
with a wrapper that records a span: name, start, end, parent span and
operation id.  Calls between functions of one module go through the
module's globals, so they are traced too.  Spans stay in memory until
``write``; self time is a span's duration minus the time its child spans
cover.  Names missing from a module are skipped, so the tracer survives
refactors that delete or move a function (its counts then read 0).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

# (module, attribute or Class.method, span name). Element-wise sign algebra
# (qadd, qmul, sign_of) is left unwrapped: it runs millions of times per
# second and is counted in its caller's self time.
TRACED = [
    ("qcnet.signs", "qmatvec", "signs.qmatvec"),
    ("qcnet.network", "validate", "network.validate"),
    ("qcnet.network", "link_matrix", "network.link_matrix"),
    ("qcnet.network", "propagate", "network.propagate"),
    ("qcnet.network", "explain", "network.explain"),
    ("qcnet.network", "Network.topological_order", "network.topological_order"),
    ("qcnet.network", "Network.descendants", "network.descendants"),
    ("qcnet.oracle", "check_containment", "oracle.check_containment"),
    ("qcnet.oracle", "sample_model", "oracle.sample_model"),
    ("qcnet.netfile", "parse_network", "netfile.parse_network"),
    ("qcnet.netfile", "build_network", "netfile.build_network"),
    ("qcnet.cli", "run_command", "cli.run_command"),
]
#: Every span name, each ``*_derivative`` of qcnet.links counting as one.
LAYER_SPANS = ("links.derivative", *(span for _, _, span in TRACED))


def _link_derivatives() -> list[tuple[str, str, str]]:
    """Every ``*_derivative`` function of qcnet.links, and every
    ``derivative`` method of a class defined there, as ``links.derivative``."""
    mod = sys.modules["qcnet.links"]
    out = []
    for name, obj in vars(mod).items():
        if name.endswith("_derivative") and not name.startswith("_") and inspect.isfunction(obj):
            out.append(("qcnet.links", name, "links.derivative"))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and inspect.isfunction(vars(obj).get("derivative")):
            out.append(("qcnet.links", f"{name}.derivative", "links.derivative"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.completed = 0  # ContainmentReport counters seen on return
        self.resampled = 0
        self.parsed_bytes = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, span: str):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        on_return = self._count_report if span == "oracle.check_containment" else None
        counts_bytes = span == "netfile.parse_network"
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            if counts_bytes and args:
                self.parsed_bytes += len(args[0].encode("utf-8"))
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count_report(self, report) -> None:
        self.completed += report.completed
        self.resampled += report.resampled

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items()) if n == "qcnet" or n.startswith("qcnet.")]
        for mod_name, attr, span in TRACED + _link_derivatives():
            owner = sys.modules[mod_name]
            *cls, name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            fn = vars(owner).get(name) if owner is not None else None
            if fn is None:
                continue
            wrapper = self._wrap(fn, span)
            holders = [owner] if cls else package
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    # -- results --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds), with link derivatives summed."""
        calls = [0] * len(self.names)
        secs = [0.0] * len(self.names)
        for nid, own in zip(self.name_id, self.self_times()):
            calls[nid] += 1
            secs[nid] += own
        return {name: (calls[i], secs[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Gzipped TSV, one line per span: op, name, start and end (us), parent."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\top\tname\tstart_us\tend_us\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.op[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\n"
                )
