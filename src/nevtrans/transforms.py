"""The two pointwise transformations and the iteration engine.

``gamma``:      M -> M^{-1} / (lam^2 - 1)   (an involution)
``gamma_hat``:  M -> -(M + lam I)^{-1}      (a strict contraction for
                                             |Im lam| > 1, rate |Im lam|^{-2})

Iteration operates on values at a fixed lam; realizations of the iterates as
operators live in :mod:`nevtrans.realize`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .herglotz import RealizedFunction, _finite_inv, evaluate
from .specialfn import CUT_TOL, m0_gammahat

#: condition number above which gamma emits an ill-conditioning warning
COND_WARN = 1e12

#: double-precision floor below which contraction ratios are meaningless
RESIDUAL_FLOOR = 1e-15


def _opnorm(M: np.ndarray) -> float:
    return float(np.linalg.norm(np.atleast_2d(M), 2))


def gamma(Mval: np.ndarray, lam: complex) -> np.ndarray:
    """Value of the involution M^{-1}/(lam^2 - 1)."""
    lam = complex(lam)
    if min(abs(lam - 1.0), abs(lam + 1.0)) < CUT_TOL:
        raise ValueError(f"lam={lam} is within {CUT_TOL} of +-1, where the lam^2 - 1 factor vanishes")
    Mval = np.atleast_2d(np.asarray(Mval, dtype=complex))
    cond = np.linalg.cond(Mval)
    if not np.isfinite(cond):
        raise np.linalg.LinAlgError("singular value passed to gamma")
    if cond > COND_WARN:
        warnings.warn(f"gamma input condition number {cond:.2e}", RuntimeWarning, stacklevel=2)
    return np.linalg.inv(Mval) / (lam * lam - 1.0)


def gamma_hat(Mval: np.ndarray, lam: complex) -> np.ndarray:
    """Value of -(M + lam I)^{-1}; LinAlgError at a singular shift signals a non-Nevanlinna input."""
    Mval = np.atleast_2d(np.asarray(Mval, dtype=complex))
    return -_finite_inv(Mval + complex(lam) * np.eye(Mval.shape[0]))


@dataclass
class IterationTrace:
    """Per-step record of the gamma_hat iteration at one fixed lam."""

    lam: complex
    values: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    ratios: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["n,re_value00,im_value00,residual,ratio"]
        for n, (v, r) in enumerate(zip(self.values, self.residuals), start=1):
            ratio = self.ratios[n - 2] if n >= 2 else float("nan")
            v00 = np.atleast_2d(v)[0, 0]
            lines.append(
                f"{n},{v00.real:.17g},{v00.imag:.17g},{r:.17g},{ratio:.17g}"
            )
        return "\n".join(lines) + "\n"


def iterate_gamma_hat(F: RealizedFunction, lam: complex, n: int) -> IterationTrace:
    """n steps of M_{k+1} = -(M_k + lam)^{-1} starting from F(lam).

    Residuals are operator-norm distances to the closed-form fixed point;
    ratios below the double-precision floor are recorded but not meaningful.
    """
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ValueError("iteration requires Im lam != 0")
    if n < 1:
        raise ValueError("need at least one step")
    target = m0_gammahat(lam) * np.eye(F.dim)
    trace = IterationTrace(lam=lam)
    val = evaluate(F, lam)
    for _ in range(n):
        val = gamma_hat(val, lam)
        trace.values.append(val)
        trace.residuals.append(_opnorm(val - target))
    for k in range(1, len(trace.residuals)):
        prev = trace.residuals[k - 1]
        trace.ratios.append(trace.residuals[k] / prev if prev > 0.0 else 0.0)
    return trace


def fixed_point_residual_all_powers(lam: complex, k: int, d: int = 1) -> float:
    """Deviation after k applications of gamma_hat to the fixed point itself."""
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ValueError("requires Im lam != 0")
    if k < 1:
        raise ValueError("need k >= 1")
    start = m0_gammahat(lam) * np.eye(d)
    val = start
    for _ in range(k):
        val = gamma_hat(val, lam)
    return _opnorm(val - start)
