"""The two pointwise transformations and the iteration engine.

``gamma``:      M -> M^{-1} / (lam^2 - 1)   (an involution)
``gamma_hat``:  M -> -(M + lam I)^{-1}      (a strict contraction for
                                             |Im lam| > 1, rate |Im lam|^{-2})

Both take lam of any shape and values of shape lam.shape + (d, d); the
iteration runs at fixed lam, on a whole lam array at once.  Realizations of
the iterates as operators live in :mod:`nevtrans.realize`.

A 1 x 1 value is inverted by a division (``herglotz._finite_inv``), never by
LAPACK or an SVD.  ``gamma_hat`` takes one 1 x 1 value at a scalar lam
through the same operations on numpy scalars, whose division rounds as
numpy's array division does: an array lam gives the bits of the scalar
calls, stacked.  A scalar lam stays a Python complex: ``gamma`` tests it
against +-1 with ``abs`` and divides by the Python scalar lam^2 - 1, and
lam I_d and the iteration's target m0 I_d are one product with I_d each.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .herglotz import RealizedFunction, _as_complex, _finite_inv, _finite_recip, _prescale, _times_eye, evaluate
from .specialfn import CUT_TOL, m0_gammahat

#: condition number above which gamma emits an ill-conditioning warning
COND_WARN = 1e12

#: residual at and below which an iterate counts as converged to double precision;
#: ratios from there on measure rounding, not contraction
RESIDUAL_FLOOR = 1e-14


def gamma(Mval: np.ndarray, lam) -> np.ndarray:
    """Value of the involution M^{-1}/(lam^2 - 1)."""
    lam = _as_complex(lam)
    if isinstance(lam, complex):  # Python arithmetic rounds as numpy's does, without its dispatch
        near, scale = min(abs(lam - 1.0), abs(lam + 1.0)) < CUT_TOL, lam * lam - 1.0
    else:
        near = np.any(np.minimum(np.abs(lam - 1.0), np.abs(lam + 1.0)) < CUT_TOL)
        scale = np.expand_dims(lam * lam - 1.0, (-2, -1))
    if near:
        raise ValueError(f"lam={lam} is within {CUT_TOL} of +-1, where the lam^2 - 1 factor vanishes")
    Mval = np.atleast_2d(np.asarray(Mval, dtype=complex))
    if Mval.shape[-1] > 1:  # a 1 x 1 value's condition number is exactly 1
        cond = np.linalg.cond(Mval)
        if not np.all(np.isfinite(cond)):
            raise np.linalg.LinAlgError("singular value passed to gamma")
        if np.any(cond > COND_WARN):
            warnings.warn(f"gamma input condition number {np.max(cond):.2e}", RuntimeWarning, stacklevel=2)
    return _finite_inv(Mval) / scale


def gamma_hat(Mval: np.ndarray, lam) -> np.ndarray:
    """Value of -(M + lam I)^{-1}; LinAlgError at a singular shift signals a non-Nevanlinna input.

    Where lam is past herglotz._prescale's bound the value is Gamma_hat(M/4, lam/4)/4,
    exact in powers of two: M + lam I would overflow inside the division and inside
    LAPACK, which both flush -(lam I)^{-1} to zero at lam = 1e308 + 1e308i.  One
    1 x 1 value at a scalar lam needs no test: its reciprocal takes a quarter of
    M + lam itself, with the same bits.
    """
    Mval, lam = np.atleast_2d(np.asarray(Mval, dtype=complex)), _as_complex(lam)
    if Mval.shape == (1, 1) and isinstance(lam, complex):
        return (-_finite_recip(Mval[0, 0] + lam))[None, None]
    s = _prescale(lam)
    if s is not None:
        s_ = np.asarray(s)[..., None, None]
        return gamma_hat(Mval * s_, lam * s) * s_
    return -_finite_inv(Mval + _times_eye(lam, Mval.shape[-1]))


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """What the gamma_hat iteration at a fixed lam measured, step by step.

    ``values`` is (n,) + lam.shape + (d, d); ``residuals``, (n,) + lam.shape, holds
    the operator-norm distances to the closed-form fixed point; ``ratios``,
    (n - 1,) + lam.shape, holds each residual over the one before (0 after a
    zero residual)."""

    lam: complex | np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    ratios: np.ndarray

    @property
    def max_ratio(self):
        """Per lam, the largest ratio before the residual first reaches RESIDUAL_FLOOR, or 0.0
        when none does.  A measurement, not a bound: for |Im lam| < 1 early ratios can exceed 1."""
        floored = np.logical_or.accumulate(self.residuals[1:] <= RESIDUAL_FLOOR, axis=0)
        return np.max(np.where(floored, 0.0, self.ratios), axis=0, initial=0.0)


def iterate_gamma_hat(F: RealizedFunction, lam, n: int) -> IterationTrace:
    """n steps of M_{k+1} = -(M_k + lam)^{-1} starting from F(lam)."""
    lam = _as_complex(lam)
    if lam.imag == 0.0 if isinstance(lam, complex) else np.any(lam.imag == 0.0):
        raise ValueError("iteration requires Im lam != 0")
    if n < 1:
        raise ValueError("need at least one step")
    target = _times_eye(m0_gammahat(lam), F.dim)
    values = np.empty((n,) + target.shape, dtype=complex)
    val = evaluate(F, lam)
    for k in range(n):
        values[k] = val = gamma_hat(val, lam)
    # a 1 x 1 iterate's operator norm is the modulus; larger ones take one batched SVD over the
    # stacked iterates, each matrix getting the singular values of its own call
    err = values - target
    res = np.abs(err[..., 0, 0]) if F.dim == 1 else np.linalg.norm(err, 2, axis=(-2, -1))
    ratios = np.divide(res[1:], res[:-1], out=np.zeros_like(res[1:]), where=res[:-1] > 0.0)
    return IterationTrace(lam, values, res, ratios)
