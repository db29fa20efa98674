"""The four benchmark workloads: seeded inputs, operations and their checks.

A workload builds its inputs from the seed and exposes ``round()``: a fixed
list of operations that a run repeats whole.  Each operation is an ``Op``
whose ``run`` is timed and whose ``check`` (outside the timed region) returns
a list of failure messages.  Every call into the program goes through the
``nevtrans`` package namespace, so the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import nevtrans as nt

import checks as ck
from tracer import SUITES

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _hermitian(rng, d, scale):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (G + G.conj().T) / 2.0


def random_jacobi_blocks(rng, d: int, N: int):
    """Hermitian diagonal blocks and well-conditioned superdiagonal blocks."""
    a = [_hermitian(rng, d, 0.5) for _ in range(N)]
    b = [np.eye(d) + 0.2 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
         for _ in range(N - 1)]
    return a, b


def decaying_coefficients(rng, length: int):
    """Scalar a_k -> 0 and b_k -> 1 at rate 1/(1+k)^2: a decaying perturbation
    of the free coefficients (a_k = 0, b_k = 1)."""
    decay = 1.0 / (1.0 + np.arange(length)) ** 2
    a = 0.5 * rng.uniform(-1, 1, length) * decay
    b = 1.0 + 0.4 * rng.uniform(-1, 1, length - 1) * decay[:-1]
    return a.tolist(), b.tolist()


# -- jacobi-grid ----------------------------------------------------------------

class JacobiGrid:
    """Block Jacobi m-functions on a grid of lambda, then the Gamma_hat iterates."""

    N = 200
    IM_LEVELS = np.geomspace(0.05, 2.0, 6)
    RE_PER_LEVEL = 4
    STEPS = 20

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.rng = rng
        self.random = [(d, *random_jacobi_blocks(rng, d, self.N)) for d in (1, 3)]

    def _grid(self):
        """Conjugate pairs; |Im lam| on fixed levels from 0.05 to 2, Re drawn from the seed."""
        lams = []
        for im in self.IM_LEVELS:
            for re in self.rng.uniform(-2.5, 2.5, self.RE_PER_LEVEL):
                lams += [complex(re, im), complex(re, -im)]
        return lams

    def round(self):
        specs = [("random", d, a, b) for d, a, b in self.random]
        specs += [("Jhat0", 1, None, None), ("Jhat0", 3, None, None),
                  ("J0", 1, None, None), ("J0", 3, None, None)]
        return [self._op(kind, d, a, b, self._grid()) for kind, d, a, b in specs]

    def _op(self, kind, d, a, b, lams):
        N, steps = self.N, self.STEPS
        dense = {}  # eigendecompositions, made at the first check and kept for the run
        shifted = [complex(l.real, math.copysign(1.0 + abs(l.imag), l.imag)) for l in lams]

        def run():
            if kind == "random":
                J = nt.BlockJacobi.of(a, b)
            elif kind == "Jhat0":
                J = nt.build_Jhat0(d, N)
            else:
                J = nt.build_J0(d, N)
            m_res = [nt.m_resolvent(J, l) for l in lams]
            m_cf = [nt.m_cf(J, l) for l in lams]
            iterated = []
            for l, M in zip(lams, m_res):
                for _ in range(steps):
                    M = nt.gamma_hat(M, l)
                iterated.append(M)
            gam = [nt.gamma(M, l) for l, M in zip(lams, m_res)]
            zero = nt.RealizedFunction.zero(d)
            traces = [nt.iterate_gamma_hat(zero, l, steps) for l in shifted]
            return m_res, m_cf, iterated, gam, traces

        def check(out):
            m_res, m_cf, iterated, gam, traces = out
            bad = []
            for i, l in enumerate(lams):
                bad += ck.close(m_res[i], m_cf[i], l, "m_resolvent vs m_cf")
                bad += ck.close(gam[i], np.linalg.inv(m_res[i]) / (l * l - 1.0), l, "gamma")
            for i in range(0, len(lams), 2):
                bad += ck.check_symmetry(m_res[i], m_res[i + 1], lams[i])
            if kind == "random":
                if not dense:
                    dense["J"] = ck.Spectral.of_jacobi(a, b)
                    dense["chain"] = ck.Spectral.of_jacobi(*ck.prepend_free(a, b, steps))
                for i, l in enumerate(lams):
                    bad += ck.close(m_res[i], dense["J"].m(l), l, "dense eigendecomposition")
                    bad += ck.close(iterated[i], dense["chain"].m(l), l, "gamma_hat^n vs prepended chain")
            else:
                eye = np.eye(d)
                for i, l in enumerate(lams):
                    want = ck.m_free(l, N) if kind == "Jhat0" else ck.m_chebyshev(l, N)
                    bad += ck.close(m_res[i], want * eye, l, f"{kind} closed form")
                    chain = ck.m_free(l, N + steps) if kind == "Jhat0" else want
                    if kind == "J0":
                        for _ in range(steps):
                            chain = -1.0 / (chain + l)
                    bad += ck.close(iterated[i], chain * eye, l, "gamma_hat^n vs prepended chain")
            for l, tr in zip(shifted, traces):
                bad += ck.check_contraction(tr.values, l)
            return bad

        return Op(f"{kind}-d{d}", run, check)


# -- realize-kernels ------------------------------------------------------------

class RealizeKernels:
    """Dense realizations (T, K): evaluation, Gram builders, dilation, chains."""

    SIZES = ((32, 1), (32, 3), (128, 1), (128, 3))
    SETS = 2
    POINTS = 8
    DEPTHS = range(1, 9)
    SIMPLE_MAX_N = 32

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.sets = []
        for s in range(self.SETS):
            group = []
            for k, (n, d) in enumerate(self.SIZES):
                base = 10_000 * seed + 100 * s + 10 * k
                Fc = nt.random_contraction_resolvent(base, d, n)
                Fn = nt.random_nevanlinna(base + 1, d, n)
                pts = [complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.3, 2))
                       for _ in range(self.POINTS)]
                vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(self.POINTS)]
                group.append((n, d, Fc, Fn, nt.SampleSet.of(pts, vecs)))
            self.sets.append(group)

    def round(self):
        return [self._op(s, group) for s, group in enumerate(self.sets)]

    def _op(self, s, group):
        depths = self.DEPTHS

        def run():
            out = []
            for n, d, Fc, Fn, S in group:
                pts = S.points
                vals = [nt.evaluate(Fn, p) for p in pts]
                G_nev = nt.nevanlinna_gram(Fn, S)
                G_int = nt.class_n0_interval_gram(Fc, S)
                psd = (nt.is_psd_gram(G_nev), nt.is_psd_gram(G_int))
                R = nt.SubspaceRealization.of(Fc.T, Fc.K)
                bT = nt.bold_T(R)
                bold_m = [bT.m_function(p) for p in pts]
                chain_m = []
                for depth in depths:
                    C = nt.chain_A(Fn.K, Fn.T, depth)
                    p = pts[depth % len(pts)]
                    chain_m.append(nt.compressed_resolvent(C.assembled, C.m_basis(), p))
                simple = nt.simplicity_check(R) if n <= self.SIMPLE_MAX_N else None
                out.append((vals, G_nev, G_int, psd, bT, bold_m, chain_m, simple))
            return out

        def check(out):
            bad = []
            for (n, d, Fc, Fn, S), (vals, G_nev, G_int, psd, bT, bold_m, chain_m, simple) in zip(group, out):
                pts = S.points
                spec_n, spec_c = ck.Spectral(Fn.T, Fn.K), ck.Spectral(Fc.T, Fc.K)
                for p, v in zip(pts, vals):
                    bad += ck.close(v, spec_n.m(p), p, f"evaluate n={n} d={d}")
                bad += ck.check_psd(G_nev, "nevanlinna_gram") + ck.check_psd(G_int, "interval gram")
                if psd != (True, True):
                    bad.append(f"is_psd_gram rejected a Gram matrix: {psd}")
                bad += ck.check_norm_le_one(bT.T, "bold_T")
                for p, v in zip(pts, bold_m):
                    want = np.linalg.inv(spec_c.m(p)) / (p * p - 1.0)
                    bad += ck.close(v, want, p, "bold_T m-function vs M^-1/(lam^2-1)")
                for depth, v in zip(depths, chain_m):
                    p = pts[depth % len(pts)]
                    want = spec_n.m(p)
                    for _ in range(depth):
                        want = ck.gamma_hat(want, p)
                    bad += ck.close(v, want, p, f"chain depth {depth}")
                if simple is not None and not 1 <= simple[1] <= n:
                    bad.append(f"simplicity_check returned rank {simple[1]} for n={n}")
            return bad

        return Op(f"set{s}", run, check)


# -- kac-deep ---------------------------------------------------------------------

class KacDeep:
    """One lambda per operation over length-2000 chains: Kac, canonical and Jacobi.

    An operation takes every coefficient sequence at its lambda, so that it
    lasts long enough (about a second) to average out the machine's
    sub-second speed changes.
    """

    LENGTH = 2000
    SEQUENCES = 4
    # lambda is fixed, so the truncation lengths and with them the cost of a
    # round do not depend on the seed; the seed draws the coefficients.  The
    # smallest Im lambda sits mid-band, where the truncation is longest.
    IM_LEVELS = np.geomspace(0.05, 2.0, 6)
    RE_VALUES = (0.3, -0.3, -0.9, -1.5, 1.5, 0.9)
    SHIFTS = (1, 4, 16)
    TOL = 1e-8

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.coeffs = [decaying_coefficients(rng, self.LENGTH) for _ in range(self.SEQUENCES)]

    def round(self):
        return [self._op(complex(re, im)) for re, im in zip(self.RE_VALUES, self.IM_LEVELS)]

    def _op(self, lam):
        L, tol, shifts = self.LENGTH, self.TOL, self.SHIFTS

        def run():
            out = []
            for a, b in self.coeffs:
                H = nt.kac_algorithm(a, b, L)
                est = nt.m_canonical(H, lam, tol)
                shifted = [nt.m_canonical(nt.hamiltonian_Hn(H, n), lam, tol) for n in shifts]
                J = nt.BlockJacobi.of(a, b)
                out.append((est, shifted, complex(nt.m_cf(J, lam)[0, 0]), complex(nt.m_resolvent(J, lam)[0, 0])))
            return out

        def check(out):
            bad = []
            for est, shifted, m_cf, m_res in out:
                if not (est.converged and all(e.converged for e in shifted)):
                    bad.append(f"m_canonical did not converge at lambda={lam:.4g}")
                bad += ck.close(m_cf, m_res, lam, "m_cf vs m_resolvent")
                bad += ck.check_in_disk(m_cf, est.center, est.radius, f"Jacobi m in Weyl disk at {lam:.4g}")
                for n, e in zip(shifts, shifted):
                    c, r = ck.gamma_hat_disk(est.center, est.radius, lam, n)
                    bad += ck.check_disks_meet(e.center, e.radius, c, r, f"m(H_{n}) vs Gamma_hat^{n} m(H)")
            return bad

        return Op(f"im{lam.imag:.3g}", run, check)


# -- cli-session ------------------------------------------------------------------

class CliSession:
    """A fixed script of ``python -m nevtrans.cli`` invocations, one per operation.

    The first invocation, the cheap ``kac`` conversion, doubles as the warm-up.
    """

    N = 200
    GRID = "-2.5:2.5:20,0.1:2:10"
    GRID_POINTS = 200
    KAC_LENGTH = 400
    ITERATE_STEPS = 30
    TIMEOUT_S = 60

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 4])
        self.workdir = workdir
        self.trace_prefix = None  # set by the worker for traced invocations
        self.a, self.b = random_jacobi_blocks(rng, 1, self.N)
        self._write("jacobi.json", nt.BlockJacobi.of(self.a, self.b).to_json())
        self._write("coeffs.json", nt.BlockJacobi.of(*decaying_coefficients(rng, self.KAC_LENGTH)).to_json())
        self.start = nt.random_nevanlinna(int(rng.integers(1 << 30)), 2, 8)
        self._write("start.json", self.start.to_json())
        self.lam = complex(rng.uniform(-1, 1), rng.uniform(1.2, 2.0))
        self.dense = None  # eigendecomposition of the mfun matrix, made at the first check
        self.last_output = {}

    def _write(self, name, text):
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def scripts(self):
        w = lambda name: os.path.join(self.workdir, name)  # noqa: E731
        lam = f"{self.lam.real!r},{self.lam.imag!r}"
        out = [("kac", ["kac", w("coeffs.json"), "--m", str(self.KAC_LENGTH)]),
               ("iterate", ["iterate", w("start.json"), "--lambda", lam, "--n", str(self.ITERATE_STEPS)]),
               ("mfun", ["mfun", w("jacobi.json"), "--grid", self.GRID])]
        return out + [(f"verify-{s}", ["verify", s]) for s in SUITES]

    def round(self):
        return [self._op(label, args) for label, args in self.scripts()]

    def _invoke(self, label, args):
        if self.trace_prefix:
            cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), self.trace_prefix] + args
        else:
            cmd = [sys.executable, "-m", "nevtrans.cli"] + args
        proc = subprocess.run(cmd, capture_output=True, timeout=self.TIMEOUT_S)
        return proc.returncode, proc.stdout

    def _op(self, label, args):
        def run():
            return self._invoke(label, args)

        def check(out):
            code, stdout = out
            if code != 0:
                return [f"{label} exited {code}"]
            bad = []
            prev = self.last_output.setdefault(label, stdout)
            if prev != stdout:
                bad.append(f"{label}: output differs from an earlier identical invocation")
            text = stdout.decode("utf-8")
            if label == "mfun":
                bad += self._check_mfun(text)
            elif label == "iterate":
                bad += self._check_iterate(text)
            elif label == "kac":
                bad += self._check_kac(text)
            elif not text.startswith(f"PASS {label[len('verify-'):]}:"):
                bad.append(f"{label} did not print PASS: {text.strip()[:80]}")
            return bad

        return Op(label, run, check)

    def _check_mfun(self, text):
        rows = text.strip().splitlines()[1:]
        if len(rows) != self.GRID_POINTS:
            return [f"mfun printed {len(rows)} rows, expected {self.GRID_POINTS}"]
        if self.dense is None:
            self.dense = ck.Spectral.of_jacobi(self.a, self.b)
        bad = []
        for row in rows:
            re_l, im_l, re_m, im_m = (float(x) for x in row.split(","))
            lam = complex(re_l, im_l)
            bad += ck.close(complex(re_m, im_m), self.dense.m(lam)[0, 0], lam, "mfun CSV vs dense eigendecomposition")
        return bad

    def _check_iterate(self, text):
        rows = text.strip().splitlines()[1:]
        if len(rows) != self.ITERATE_STEPS:
            return [f"iterate printed {len(rows)} rows"]
        want = ck.Spectral(self.start.T, self.start.K).m(self.lam)
        bad = []
        for row in rows:
            cols = row.split(",")
            want = ck.gamma_hat(want, self.lam)
            bad += ck.close(complex(float(cols[1]), float(cols[2])), want[0, 0], self.lam, "iterate CSV")
        return bad

    def _check_kac(self, text):
        doc = json.loads(text)
        bp, th = np.array(doc["breakpoints"]), np.array(doc["thetas"])
        steps = np.diff(th)
        if len(th) != self.KAC_LENGTH or bp[0] != 0.0 or th[0] != math.pi / 2:
            return ["kac: wrong interval count or first interval"]
        if not (np.all(np.diff(bp) > 0) and np.all(steps > 0) and np.all(steps < math.pi)):
            return ["kac: breakpoints or angles not strictly increasing by less than pi"]
        return []


WORKLOADS = {
    "jacobi-grid": JacobiGrid,
    "realize-kernels": RealizeKernels,
    "kac-deep": KacDeep,
    "cli-session": CliSession,
}
