"""Span tracing of nevtrans from outside the package.

``Tracer.install`` replaces each function named in ``FUNCTIONS`` by a
wrapper that records a span, in every loaded nevtrans module that holds the
function, including copies imported by name (``transforms.evaluate``,
``cli.m_resolvent``, ...).  Acceptance suites are wrapped in the ``SUITES``
dict the CLI runs them from, CLI commands through their click callbacks.
Spans stay in memory, in flat arrays, until the run writes them out.

A span's self time is its duration minus the durations of its child spans;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import sys
import time
from array import array

import numpy as np

#: every traced library function, as <module>.<attribute> under nevtrans
FUNCTIONS = (
    "jacobi.BlockJacobi.of", "jacobi.m_resolvent", "jacobi.m_cf",
    "transforms.gamma_hat", "transforms.gamma", "transforms.iterate_gamma_hat",
    "specialfn.sqrt_offcut",
    "herglotz.evaluate", "herglotz.nevanlinna_gram", "herglotz.class_n0_interval_gram",
    "herglotz.is_psd_gram", "herglotz.random_contraction_resolvent", "herglotz.random_nevanlinna",
    "realize.bold_T", "realize.defect_operator", "realize.compressed_resolvent",
    "realize.chain_A", "realize.simplicity_check",
    "kac.kac_algorithm", "kac.hamiltonian_Hn",
    "canonical.m_canonical", "canonical.weyl_disk", "canonical.transfer_matrix",
)

CLI_COMMANDS = ("mfun", "iterate", "kac", "verify")

SUITES = ("fixed-points", "quadrature", "contraction", "uniform-grid", "truncation", "wollen",
          "chain", "kac", "hn-two-path", "kac-canonical", "kernels", "hamiltonian-scheme")

#: entry points, reported with their inclusive time; library functions report self time
ENTRY_POINTS = tuple(f"cli.{c}" for c in CLI_COMMANDS) + tuple(f"acceptance.{s}" for s in SUITES)

NAMES = FUNCTIONS + ENTRY_POINTS

#: functions that a workload's set-up calls; their set-up time is reported on its own
SETUP_FUNCTIONS = ("herglotz.random_contraction_resolvent", "herglotz.random_nevanlinna")


def _needed_intervals(args, est) -> int:
    """Intervals of H up to the truncation m_canonical settled on."""
    return bisect.bisect_left(args[0].breakpoints, est.truncation_T)


#: per-span work recorded from a call's arguments and result
WORK = {
    "herglotz.nevanlinna_gram": lambda args, out: len(args[1].points),
    "canonical.m_canonical": _needed_intervals,
}


class Tracer:
    def __init__(self):
        self.ids = {name: i for i, name in enumerate(NAMES)}
        self.sid, self.parent, self.op = array("i"), array("i"), array("i")
        self.work = array("q")
        self.t0, self.t1 = array("d"), array("d")
        self.op_id = -1  # -1 marks set-up; operations set their index
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        sid, work = self.ids[name], WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.t0)
            self.sid.append(sid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.work.append(0)
            self.t1.append(0.0)
            self._stack.append(i)
            self.t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.t1[i] = clock()
                self._stack.pop()
            if work is not None:
                self.work[i] = work(args, out)
            return out

        return traced

    # -- installing --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = [m for n, m in sys.modules.items() if n == "nevtrans" or n.startswith("nevtrans.")]
        for name in FUNCTIONS:
            layer, path = name.split(".", 1)
            mod = sys.modules[f"nevtrans.{layer}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, attr, classmethod(self.wrap(name, cls.__dict__[attr].__func__)))
                continue
            orig = getattr(mod, path)
            wrapped = self.wrap(name, orig)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, attr, wrapped)
        acceptance = sys.modules.get("nevtrans.acceptance")
        if acceptance is not None:
            for suite, fn in list(acceptance.SUITES.items()):
                self._undo.append((acceptance.SUITES, suite, fn))
                acceptance.SUITES[suite] = self.wrap(f"acceptance.{suite}", fn)
        cli = sys.modules.get("nevtrans.cli")
        if cli is not None:
            for command in CLI_COMMANDS:
                cmd = cli.main.commands[command]
                self._set(cmd, "callback", self.wrap(f"cli.{command}", cmd.callback))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- summarising -------------------------------------------------------------

    def summary(self, setup: bool = False) -> dict:
        """Totals over the spans of operations (or of set-up): calls, self and
        inclusive seconds and work per name, plus the two waste counters."""
        sid = np.array(self.sid, dtype=np.int64)
        n = len(sid)
        parent = np.array(self.parent, dtype=np.int64)
        op = np.array(self.op, dtype=np.int64)
        work = np.array(self.work, dtype=np.int64)
        dur = np.array(self.t1) - np.array(self.t0)
        children = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        selfdur = dur - children
        keep = op < 0 if setup else op >= 0
        out = {"calls": {}, "self_s": {}, "incl_s": {}, "work": {}}
        for name, i in self.ids.items():
            mask = keep & (sid == i)
            out["calls"][name] = int(mask.sum())
            out["self_s"][name] = float(selfdur[mask].sum())
            out["incl_s"][name] = float(dur[mask].sum())
            out["work"][name] = int(work[mask].sum())
        out["evaluate_in_gram"] = int((keep & (sid == self.ids["herglotz.evaluate"])
                                       & self._under(sid, parent, "herglotz.nevanlinna_gram")).sum())
        out["transfer_in_canonical"] = int((keep & (sid == self.ids["canonical.transfer_matrix"])
                                            & self._under(sid, parent, "canonical.m_canonical")).sum())
        return out

    def _under(self, sid, parent, name):
        """Mask of spans that have a span called ``name`` among their ancestors."""
        target = self.ids[name]
        under = np.zeros(len(sid), dtype=bool)
        p = parent.copy()
        while np.any(p >= 0):
            valid = p >= 0
            under[valid] |= sid[p[valid]] == target
            p[valid] = parent[p[valid]]
        return under

    def dump(self, path: str):
        """Write every span as CSV: name, operation, parent span, start, end, work."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,op,parent,start_s,end_s,work\n")
            for i in range(len(self.t0)):
                fh.write(f"{i},{NAMES[self.sid[i]]},{self.op[i]},{self.parent[i]},"
                         f"{self.t0[i]!r},{self.t1[i]!r},{self.work[i]}\n")


def merge(total: dict | None, part: dict) -> dict:
    """Sum two summaries."""
    if total is None:
        return {k: dict(v) if isinstance(v, dict) else v for k, v in part.items()}
    for key, value in part.items():
        if isinstance(value, dict):
            for name, x in value.items():
                total[key][name] = total[key].get(name, 0) + x
        else:
            total[key] = total.get(key, 0) + value
    return total


def per_layer_metrics(ops: dict, setup: dict | None, n_ops: int, import_s: float, overhead_pct: float) -> dict:
    """The per-layer metrics of one traced run, each with its unit."""
    m = {}
    for name in NAMES:
        seconds = ops["incl_s" if name in ENTRY_POINTS else "self_s"][name]
        m[f"{name}.calls"] = (ops["calls"][name] / n_ops, "calls/op")
        m[f"{name}.ms"] = (1e3 * seconds / n_ops, "ms/op")
    for name in SETUP_FUNCTIONS:
        m[f"setup.{name}.ms"] = (1e3 * setup["self_s"][name] if setup else 0.0, "ms/setup")
    m["cli.import.ms"] = (1e3 * import_s / n_ops, "ms/op")
    needed = ops["work"]["canonical.m_canonical"]
    m["canonical.propagated_per_needed"] = (ops["transfer_in_canonical"] / needed if needed else 0.0, "ratio")
    points = ops["work"]["herglotz.nevanlinna_gram"]
    m["herglotz.evaluate.calls_per_point"] = (ops["evaluate_in_gram"] / points if points else 0.0, "calls/point")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
