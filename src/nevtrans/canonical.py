"""Canonical-system solver for step Hamiltonians.

Per constant-angle interval the propagator of J x' = lam H x has the exact
nilpotent closed form I + lam*l*(-J) e e^T.  The Weyl-disk radius bounds the
error of the truncation; the rounding of the float64 product of those
propagators is not part of it.  A truncation is addressed by its interval
count m, which ends at t = H.breakpoints[m].  The propagator reads the angles
and lengths as Python floats once per call and composes the 2x2 matrices
entry by entry in Python complex scalars: on one lambda that costs less than
a numpy product per interval.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import OutOfRangeError
from .herglotz import _as_complex
from .kac import StepHamiltonian

#: determinant drift beyond which a long propagator product is rejected
DET_DRIFT_TOL = 1e-9

#: sentinel radius for the line case, met at m = 0 where nothing is propagated
RADIUS_LINE = math.inf


@dataclass(frozen=True)
class WeylDiskEstimate:
    """Center/radius of the disk of candidate m-values at one truncation."""

    lam: complex
    center: complex
    radius: float
    truncation_T: float
    converged: bool = True

    def contains(self, w: complex) -> bool:
        return abs(w - self.center) <= self.radius + 1e-12


def transfer_matrix(theta: float, l: float, lam: complex) -> np.ndarray:
    """Propagator over one constant-theta interval of length l.

    (-J) e e^T is nilpotent (e^T J e = 0), so the exponential truncates:
    exp(lam*l*(-J) e e^T) = I + lam*l*(-J) e e^T, determinant exactly 1.
    """
    if not l > 0:
        raise ValueError("interval length must be positive")
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    c, s = math.cos(theta), math.sin(theta)
    z = lam * l
    # I + z (-J) e e^T with (-J) e e^T = [[s c, s s], [-c c, -c s]], filled in
    # place: np.array of nested lists costs more than the rest of the call
    t = np.empty((2, 2), complex)
    t[0, 0], t[0, 1], t[1, 0], t[1, 1] = 1.0 + z * (s * c), z * (s * s), -z * (c * c), 1.0 - z * (c * s)
    return t


def _normalised(a, b, c, d):
    """a, b, c and d times 2^-k, where k brings the largest modulus into [0.5, 1),
    and k: exact, as only the exponents change.  ArithmeticError when one overflows."""
    big = max(abs(a), abs(b), abs(c), abs(d))
    if not math.isfinite(big):
        raise ArithmeticError("the propagator product is not finite")
    k = math.frexp(big)[1]
    f = 2.0**-k
    return a * f, b * f, c * f, d * f, k


def _propagator(H: StepHamiltonian, lam: complex, m: int) -> tuple:
    """Phi with x(t_m) = Phi x(0), composed over H's first m intervals, returned
    as its entries a, b, c, d (Phi = 2^k [[a, b], [c, d]]) and k, see _normalised."""
    # phi's entries as Python complex scalars: a 2x2 product in scalars costs
    # less than one numpy matmul call.  Each interval still goes through
    # transfer_matrix, the one home of its closed form; perfbench's tracer
    # counts those calls as the intervals propagated.
    p00, p01, p10, p11 = 1 + 0j, 0j, 0j, 1 + 0j
    steps = zip(H.thetas[:m].tolist(), np.diff(H.breakpoints[: m + 1]).tolist())
    for j, (theta, length) in enumerate(steps, 1):
        # the angle enters reflected: of the two orientations compatible with
        # the m = x2(0)/x1(0) convention, this is the one pinned by the
        # closed-form anchor oracles (see weyl_disk)
        (t00, t01), (t10, t11) = transfer_matrix(-theta, length, lam).tolist()
        p00, p01, p10, p11 = (t00 * p00 + t01 * p10, t00 * p01 + t01 * p11,
                              t10 * p00 + t11 * p10, t10 * p01 + t11 * p11)
        if j % 16 == 0 or j == m:
            # the products of entries may overflow where the entries do not, so
            # the check runs on the normalised entries, whose determinant is 2^-2k
            a, b, c, d, k = _normalised(p00, p01, p10, p11)
            unit = 2.0 ** (-2 * k)
            det = a * d - b * c
            # entries grow like |lam|^T, so the unit determinant can only be
            # certified relative to the cancellation scale of ad - bc
            scale = max(unit, abs(a * d) + abs(b * c))
            if abs(det - unit) > DET_DRIFT_TOL * scale:
                raise ArithmeticError(f"relative determinant drift {abs(det - unit) / scale:.3e} in the propagator product")
    return (a, b, c, d, k) if m else _normalised(p00, p01, p10, p11)


def weyl_disk(H: StepHamiltonian, lam: complex, m: int) -> WeylDiskEstimate:
    """Disk traced by the m-value x2(0)/x1(0) over real boundary rays at the end
    of H's first m intervals, t = H.breakpoints[m], for an integer 0 <= m <= len(H.thetas).

    The map from the boundary slope to the m-value is fractional-linear, so the
    image of the real projective line is a circle; its center and radius come
    from the closed form below.  The true m-function lies inside every disk of
    a nested truncation sequence.  The radius is that of the disk of the
    computed propagator: it leaves out the rounding of the float64 product,
    which can exceed it by many orders once the radius is tiny (the README's
    "Errors" has an example).
    """
    m = operator.index(m)
    if not 0 <= m <= len(H.thetas):
        raise OutOfRangeError(f"m={m} is not an interval count in [0, {len(H.thetas)}]")
    lam = complex(_as_complex(lam))
    if lam.imag == 0.0:
        raise ValueError("Weyl disk requires Im lam != 0")
    # adjugate inverse with the analytically exact unit determinant: the
    # computed det suffers catastrophic cancellation once entries are large;
    # normalised by 2^-k, so that the products below cannot overflow
    a, b, c, d, k = _propagator(H, lam, m)
    p, q, r, s = d, -b, -c, a

    # x(0) = phi_inv @ (cos beta, sin beta): m(tau) = (r + s tau)/(p + q tau)
    # over real tau traces the Moebius image of the real projective line, a
    # circle with closed-form center and radius |ps - qr| / |A| = 2^-2k / |A|
    A = 2.0 * (q * p.conjugate()).imag
    T = float(H.breakpoints[m])
    if A == 0.0:
        center = r / p if p != 0 else s / q
        return WeylDiskEstimate(lam=lam, center=center, radius=RADIUS_LINE, truncation_T=T, converged=False)
    beta = p * s.conjugate() - r.conjugate() * q
    # times the reciprocal, as numpy divides a complex by a real scalar
    center = -1j * beta.conjugate() * (1.0 / A)
    return WeylDiskEstimate(lam=lam, center=center, radius=math.ldexp(1.0 / abs(A), -2 * k), truncation_T=T)


def m_canonical(H: StepHamiltonian, lam: complex, tol: float) -> WeylDiskEstimate:
    """Double the interval count, m = 2, 4, 8, ... up to len(H.thetas), until the
    disk radius certifies the m-value to tol.

    Each level propagates from t = 0 again, so the intervals composed stay
    below twice the final count unless it stops at H's last interval.  As in
    weyl_disk, the radius leaves out the rounding of the propagator product.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    n = len(H.thetas)
    m = min(2, n)
    while True:
        est = weyl_disk(H, lam, m)
        if est.radius < tol:
            return est
        if m == n:
            return replace(est, converged=False)
        m = min(2 * m, n)
