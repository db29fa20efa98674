"""The two pointwise transformations and the iteration engine.

``gamma``:      M -> M^{-1} / (lam^2 - 1)   (an involution)
``gamma_hat``:  M -> -(M + lam I)^{-1}      (a strict contraction for
                                             |Im lam| > 1, rate |Im lam|^{-2})

Both take lam of any shape and values of shape lam.shape + (d, d); the
iteration runs at fixed lam, on a whole lam array at once.  Realizations of
the iterates as operators live in :mod:`nevtrans.realize`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .herglotz import RealizedFunction, _as_complex, _finite_inv, evaluate
from .specialfn import CUT_TOL, m0_gammahat

#: condition number above which gamma emits an ill-conditioning warning
COND_WARN = 1e12


def _opnorm(M: np.ndarray):
    return np.linalg.norm(M, 2, axis=(-2, -1))


def gamma(Mval: np.ndarray, lam) -> np.ndarray:
    """Value of the involution M^{-1}/(lam^2 - 1)."""
    lam = _as_complex(lam)
    if np.any(np.minimum(np.abs(lam - 1.0), np.abs(lam + 1.0)) < CUT_TOL):
        raise ValueError(f"lam={lam} is within {CUT_TOL} of +-1, where the lam^2 - 1 factor vanishes")
    Mval = np.atleast_2d(np.asarray(Mval, dtype=complex))
    cond = np.linalg.cond(Mval)
    if not np.all(np.isfinite(cond)):
        raise np.linalg.LinAlgError("singular value passed to gamma")
    if np.any(cond > COND_WARN):
        warnings.warn(f"gamma input condition number {np.max(cond):.2e}", RuntimeWarning, stacklevel=2)
    return np.linalg.inv(Mval) / np.expand_dims(lam * lam - 1.0, (-2, -1))


def gamma_hat(Mval: np.ndarray, lam) -> np.ndarray:
    """Value of -(M + lam I)^{-1}; LinAlgError at a singular shift signals a non-Nevanlinna input."""
    Mval = np.atleast_2d(np.asarray(Mval, dtype=complex))
    return -_finite_inv(Mval + np.multiply.outer(_as_complex(lam), np.eye(Mval.shape[-1])))


@dataclass
class IterationTrace:
    """Per-step record of the gamma_hat iteration at a fixed lam.  For an array
    lam, each value, residual and ratio is an array over it."""

    lam: complex | np.ndarray
    values: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    ratios: list = field(default_factory=list)

    def to_csv(self) -> str:
        """One row per step; a trace over an array lam has no CSV form."""
        if np.ndim(self.lam):
            raise ValueError("to_csv needs the trace of a scalar lam")
        lines = ["n,re_value00,im_value00,residual,ratio"]
        for n, (v, r) in enumerate(zip(self.values, self.residuals), start=1):
            ratio = self.ratios[n - 2] if n >= 2 else float("nan")
            v00 = v[0, 0]
            lines.append(
                f"{n},{v00.real:.17g},{v00.imag:.17g},{r:.17g},{ratio:.17g}"
            )
        return "\n".join(lines) + "\n"


def iterate_gamma_hat(F: RealizedFunction, lam, n: int) -> IterationTrace:
    """n steps of M_{k+1} = -(M_k + lam)^{-1} starting from F(lam).

    Residuals are operator-norm distances to the closed-form fixed point;
    ratios below the double-precision floor are recorded but not meaningful.
    """
    lam = _as_complex(lam)
    if np.any(np.imag(lam) == 0.0):
        raise ValueError("iteration requires Im lam != 0")
    if n < 1:
        raise ValueError("need at least one step")
    target = np.multiply.outer(m0_gammahat(lam), np.eye(F.dim))
    trace = IterationTrace(lam=lam)
    val = evaluate(F, lam)
    for _ in range(n):
        val = gamma_hat(val, lam)
        trace.values.append(val)
        trace.residuals.append(_opnorm(val - target))
    res = np.array(trace.residuals)
    trace.ratios = list(np.divide(res[1:], res[:-1], out=np.zeros_like(res[1:]), where=res[:-1] > 0.0))
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
