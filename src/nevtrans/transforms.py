"""The two pointwise transformations and the iteration engine.

``gamma``:      M -> M^{-1} / (lam^2 - 1)   (an involution)
``gamma_hat``:  M -> -(M + lam I)^{-1}      (a strict contraction for
                                             |Im lam| > 1, rate |Im lam|^{-2})

Both take lam of any shape and values of shape lam.shape + (d, d); the
iteration runs at fixed lam, on a whole lam array at once.  Realizations of
the iterates as operators live in :mod:`nevtrans.realize`.

A 1 x 1 value is inverted by a division (``herglotz._finite_inv``), never by
LAPACK or an SVD.  The scalar entry of ``gamma`` and ``gamma_hat``: one value
that is 1 x 1 or c I_d (below) at a scalar lam is tested once, runs on its
number c through the same operations on numpy scalars, whose division rounds
as numpy's array division does, and its result array is built once.  So an
array lam gives the bits of the scalar calls, stacked.  A scalar lam stays a
Python complex: ``gamma`` tests it against +-1 with ``abs`` and divides by the
Python scalar lam^2 - 1, and lam I_d and the iteration's m0 I_d are one
product with I_d each.

Gamma and Gamma_hat map the line C I_d into itself, and the fixed point
m0 I_d lies on it, as do zero(d)'s value and the m-functions of a Kronecker
Jacobi matrix.  A value whose d x d matrices (d > 1) are each exactly c I_d,
c finite and -0.0 counted as zero, runs as its 1 x 1 value c: ``gamma`` and
``gamma_hat`` return c' I_d, with the 1 x 1 call's bits on the diagonal and
+0.0 off it.  The test is per matrix: a stack that mixes c I_d with other
matrices runs as two stacks, so each matrix takes the path of its scalar
call.  ``iterate_gamma_hat`` tests its start once; when every matrix of it
is c I_d it iterates c and takes each residual as a modulus.  One matrix is
tested as a Python list in about 1 us.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .herglotz import (
    RealizedFunction, _as_complex, _finite_inv, _finite_recip, _prescale, _times_eye, _times_identity, evaluate,
)
from .specialfn import CUT_TOL, m0_gammahat

#: condition number above which gamma emits an ill-conditioning warning
COND_WARN = 1e12

#: residual at and below which an iterate counts as converged to double precision;
#: ratios from there on measure rounding, not contraction
RESIDUAL_FLOOR = 1e-14

_COMPLEX = np.dtype(complex)  # numpy's built-in dtypes are singletons, so an identity test finds it


def gamma(Mval: np.ndarray, lam) -> np.ndarray:
    """Value of the involution M^{-1}/(lam^2 - 1)."""
    lam = _as_complex(lam)
    if isinstance(lam, complex):  # Python arithmetic rounds as numpy's does, without its dispatch
        near = min(abs(lam - 1.0), abs(lam + 1.0)) < CUT_TOL
    else:
        near = np.any(np.minimum(np.abs(lam - 1.0), np.abs(lam + 1.0)) < CUT_TOL)
    if near:
        raise ValueError(f"lam={lam} is within {CUT_TOL} of +-1, where the lam^2 - 1 factor vanishes")
    return _by_line(_gamma, _gamma_one, Mval, lam)


def _gamma_one(c: np.complex128, lam: complex) -> np.complex128:
    """gamma of the 1 x 1 value c at a scalar lam, on numpy scalars."""
    return _finite_recip(c) / (lam * lam - 1.0)


def _gamma(Mval: np.ndarray, lam) -> np.ndarray:
    """gamma on the matrices that _by_line hands it."""
    if Mval.shape[-1] > 1:  # a 1 x 1 value's condition number is exactly 1
        cond = np.linalg.cond(Mval)
        if not np.all(np.isfinite(cond)):
            raise np.linalg.LinAlgError("singular value passed to gamma")
        if np.any(cond > COND_WARN):
            warnings.warn(f"gamma input condition number {np.max(cond):.2e}", RuntimeWarning, stacklevel=4)
    return _finite_inv(Mval) / (lam * lam - 1.0 if isinstance(lam, complex) else (lam * lam - 1.0)[..., None, None])


def gamma_hat(Mval: np.ndarray, lam) -> np.ndarray:
    """Value of -(M + lam I)^{-1}; LinAlgError at a singular shift signals a non-Nevanlinna input.

    Where lam is past herglotz._prescale's bound the value is Gamma_hat(M/4, lam/4)/4,
    exact in powers of two: M + lam I would overflow inside the division and inside
    LAPACK, which both flush -(lam I)^{-1} to zero at lam = 1e308 + 1e308i.  One
    1 x 1 value at a scalar lam needs no test: its reciprocal takes a quarter of
    M + lam itself, with the same bits.  A value c I_d runs as its 1 x 1 value c.
    """
    return _by_line(_gamma_hat, _gamma_hat_one, Mval, _as_complex(lam))


def _gamma_hat_one(c: np.complex128, lam: complex) -> np.complex128:
    """gamma_hat of the 1 x 1 value c at a scalar lam, on numpy scalars."""
    return -_finite_recip(c + lam)


def _gamma_hat(Mval: np.ndarray, lam) -> np.ndarray:
    """gamma_hat on the matrices that _by_line hands it; the prescaled retry recurses here, so
    that a call of gamma_hat stays one call of it."""
    s = _prescale(lam)
    if s is not None:
        s_ = np.asarray(s)[..., None, None]
        return _gamma_hat(Mval * s_, lam * s) * s_
    return -_finite_inv(Mval + _times_eye(lam, Mval.shape[-1]))


def _on_line(M: np.ndarray, d: int):
    """Whether the d x d matrices of M (d > 1) are each exactly c I_d with c finite, -0.0 counted
    as zero: a Python bool for one matrix, compared as a list in about 1 us, and for a stack whose
    matrices all agree; for a stack that mixes both kinds, the boolean mask over its matrices."""
    if M.ndim == 2:
        v = M.ravel().tolist()
        # v[1] rejects most other matrices at once; NaN - NaN and inf - inf fail v[0] - v[0] == 0
        return v[1] == 0 and v == [v[0]] + ([0j] * d + [v[0]]) * (d - 1) and v[0] - v[0] == 0
    on = np.isfinite(M[..., 0, 0]) & (M == _times_identity(M[..., 0, 0], d)).all((-2, -1))
    return on if on.any() and not on.all() else bool(on.all())


def _by_line(f, one, M, lam) -> np.ndarray:
    """f(M, lam) on the values M as a complex array of two or more axes, where each matrix c I_d
    of M (d > 1, see _on_line) runs as its 1 x 1 value c and comes back as c' I_d: the 1 x 1
    call's bits on the diagonal, +0.0 off it.  A stack that mixes such matrices with others runs
    as two stacks, so each matrix takes its scalar call's path.

    The scalar entry: one 1 x 1 or c I_d matrix at a scalar lam takes c' = one(c, lam) on numpy
    scalars, whose arithmetic rounds as numpy's arrays do, and builds its array once."""
    if not (type(M) is np.ndarray and M.dtype is _COMPLEX and M.ndim > 1):
        M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape == (1, 1) and isinstance(lam, complex):
        return one(M[0, 0], lam)[None, None]  # a new array, viewing the new 0-d array that holds c'
    d = M.shape[-1]
    on = d > 1 and _on_line(M, d)
    if M.ndim == 2 and on and isinstance(lam, complex):
        out = np.zeros((d, d), dtype=complex)
        out.ravel()[::d + 1] = one(M[0, 0], lam)
        return out
    if isinstance(on, bool):
        return _times_identity(f(M[..., :1, :1], lam)[..., 0, 0], d) if on else f(M, lam)
    out = np.empty(np.broadcast_shapes(on.shape, np.shape(lam)) + (d, d), dtype=complex)
    M, on, lam = np.broadcast_to(M, out.shape), np.broadcast_to(on, out.shape[:-2]), np.broadcast_to(lam, out.shape[:-2])
    out[on], out[~on] = _times_identity(f(M[on][:, :1, :1], lam[on])[:, 0, 0], d), f(M[~on], lam[~on])
    return out


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
    """n steps of M_{k+1} = -(M_k + lam)^{-1} starting from F(lam).

    A start c I_d (d > 1) takes its n gamma_hat calls on the 1 x 1 value c and
    returns the iterates as c_k I_d, with residuals |c_k - m0|."""
    lam = _as_complex(lam)
    if lam.imag == 0.0 if isinstance(lam, complex) else np.any(lam.imag == 0.0):
        raise ValueError("iteration requires Im lam != 0")
    if n < 1:
        raise ValueError("need at least one step")
    val = evaluate(F, lam)
    # Gamma_hat keeps c I_d on its line: iterate c
    val, d = (val[..., :1, :1], 1) if F.dim > 1 and _on_line(val, F.dim) is True else (val, F.dim)
    m0 = m0_gammahat(lam)  # before any step: a lam on its cut raises CutError first
    values = np.array([val := gamma_hat(val, lam) for _ in range(n)])
    # a 1 x 1 iterate's operator norm is the modulus of its distance to m0 (m0 I_1 differs from m0 at
    # most in the sign of a zero part, which the modulus drops); larger ones take one batched SVD over
    # the stacked iterates, each matrix getting the singular values of its own call
    res = np.abs(values[..., 0, 0] - m0) if d == 1 else np.linalg.norm(values - _times_eye(m0, d), 2, axis=(-2, -1))
    ratios = np.divide(res[1:], res[:-1], out=np.zeros(res[1:].shape), where=res[:-1] > 0.0)
    values = values if d == F.dim else _times_identity(values[..., 0, 0], F.dim)
    return IterationTrace(lam, values, res, ratios)
