"""Spans around the program's public functions, recorded from outside.

The modules import functions by name, so a function is wrapped in every
``mbbox`` module (and class) that binds it.  Spans are kept in memory as
``(id, name, start, end, parent, thread)`` and written out when the run
ends.  A span's self time is its duration minus the union of its child
spans; children run on their parent's thread and nest inside it, so the
union is their plain sum.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# one (point, route) evaluation inside the sweep; its spans also record the
# CPU time of their thread, which excludes waiting for the interpreter lock
ROUTE_SPAN = "cli._evaluate"

# (module, attribute path) of every traced function
TARGETS = (
    ("mbbox.cli", "cmd_sweep"),
    ("mbbox.cli", "_evaluate"),
    ("mbbox.cli", "Report.to_json"),
    ("mbbox.closed_form", "massless_box"),
    ("mbbox.closed_form", "massless_box_alt"),
    ("mbbox.closed_form", "onemass_box"),
    ("mbbox.closed_form", "onemass_box_alt"),
    ("mbbox.closed_form", "massless_box_laurent"),
    ("mbbox.closed_form", "onemass_box_laurent"),
    ("mbbox.mb_engine", "residue_massless"),
    ("mbbox.mb_engine", "residue_onemass"),
    ("mbbox.mb_engine", "mb_massless_eval"),
    ("mbbox.mb_engine", "mb_onemass_eval"),
    ("mbbox.specfun", "ln_gamma_grid"),
    ("mbbox.specfun", "ln_gamma"),
    ("mbbox.specfun", "gamma"),
    ("mbbox.specfun", "digamma"),
    ("mbbox.specfun", "li2"),
    ("mbbox.specfun", "f21_1e"),
    ("mbbox.specfun", "f21_2e"),
    ("mbbox.specfun", "f21_11"),
    ("mbbox.specfun", "f21_11_split"),
    ("mbbox.series", "gamma_series"),
    ("mbbox.series", "power_series"),
    ("mbbox.series", "RegulatorSeries.__mul__"),
    ("mbbox.series", "RegulatorSeries.__truediv__"),
    ("mbbox.series", "RegulatorSeries.exp"),
    ("mbbox.oracles", "feynman_1d_massless"),
    ("mbbox.oracles", "feynman_1d_onemass"),
    ("mbbox.oracles", "quad"),
)

# traced function -> route whose value it produces, for the call-count check
ROUTE_OF = {
    "closed_form.massless_box": "closed", "closed_form.onemass_box": "closed",
    "closed_form.massless_box_alt": "closed_alt",
    "closed_form.onemass_box_alt": "closed_alt",
    "mb_engine.residue_massless": "residue", "mb_engine.residue_onemass": "residue",
    "oracles.feynman_1d_massless": "feynman", "oracles.feynman_1d_onemass": "feynman",
    "mb_engine.mb_massless_eval": "mb", "mb_engine.mb_onemass_eval": "mb",
    "closed_form.massless_box_laurent": "laurent",
    "closed_form.onemass_box_laurent": "laurent",
}


def _metric_name(module: str, path: str) -> str:
    return module.split(".", 1)[1] + "." + path


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}          # metric name -> summed work count
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def _add_count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            cpu = time.thread_time() if name == ROUTE_SPAN else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, threading.get_ident()))
                if name == ROUTE_SPAN:
                    self._add_count(ROUTE_SPAN + ".cpu_s", time.thread_time() - cpu)
            if name == "specfun.ln_gamma_grid":
                self._add_count("specfun.ln_gamma_grid.points", int(result.size))
            elif name == "oracles.quad":
                self._add_count("oracles.quad.neval", int(result[2]["neval"]))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every mbbox module and class that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mbbox" or n.startswith("mbbox.")]
        for module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self._wrap(_metric_name(module_name, path), original)
            if cls_path:
                holders = [owner]
            else:
                holders = modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, traced)

    def remove(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def summary(self) -> dict:
        """Calls, self time and work counts per traced function."""
        child = {}
        for span_id, _name, start, end, parent, _thread in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        calls: dict = {}
        self_s: dict = {}
        total_s: dict = {}
        for span_id, name, start, end, _parent, _thread in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child.get(span_id, 0.0)
            total_s[name] = total_s.get(name, 0.0) + (end - start)
        return {"calls": calls, "self_s": self_s, "total_s": total_s,
                "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\n")
            for span in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % span)


def all_names() -> list:
    return [_metric_name(m, p) for m, p in TARGETS]
