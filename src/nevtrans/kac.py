"""Scalar Jacobi coefficients -> piecewise-constant rank-one Hamiltonians.

Implements the angle/length recursion converting (a_k, b_k) into a step
Hamiltonian whose canonical-system m-function equals the Jacobi m-function,
plus the explicit alternating Hamiltonian of the free discrete Schroedinger
matrix and the angle-shift constructions for the gamma_hat iterates.  They
build and read breakpoints and angles as float64 arrays, and shift them whole
with the same IEEE additions in the same order as shifting each angle on its
own, so they give the same bits.

Angles are stored unreduced (never taken mod pi) so the strict monotonicity
theta_{j+1} in (theta_j, theta_j + pi) stays testable; evaluation reduces
implicitly through cos/sin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStepError, OutOfRangeError

_SIN_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class StepHamiltonian:
    """Breakpoints t_0 = 0 < t_1 < ... < t_m and one angle per interval.

    H(t) on [t_j, t_{j+1}) is the rank-one trace-one projector onto
    (cos theta_j, sin theta_j).  The first interval always carries pi/2.
    ``breakpoints`` (m+1,) and ``thetas`` (m,) are float64 arrays.  ``==`` is
    identity: a field-wise comparison of arrays has no single truth value.
    """

    breakpoints: np.ndarray
    thetas: np.ndarray

    def __post_init__(self):
        bp, th = self.breakpoints, self.thetas
        if bp.ndim != 1 or th.ndim != 1 or len(bp) != len(th) + 1 or len(th) < 1:
            raise ValueError("need one more breakpoint than angles, both 1-d")
        if not (np.isfinite(bp).all() and np.isfinite(th).all()):
            raise ValueError("breakpoints and angles must be finite")
        if bp[0] != 0.0:
            raise ValueError("domain must start at t = 0")
        if not (bp[1:] > bp[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        if abs(th[0] - math.pi / 2) > 1e-12:
            raise ValueError("first interval must carry theta = pi/2")

    @classmethod
    def of(cls, breakpoints, thetas) -> "StepHamiltonian":
        """From sequences, arrays or iterables of reals; copies them."""
        return cls(np.fromiter(breakpoints, float), np.fromiter(thetas, float))

    @property
    def m(self) -> int:
        return len(self.thetas)

    @property
    def t_end(self) -> float:
        return float(self.breakpoints[-1])

    def lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def to_json(self) -> str:
        return json.dumps({"breakpoints": self.breakpoints.tolist(), "thetas": self.thetas.tolist()}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "StepHamiltonian":
        doc = json.loads(text)
        return cls.of(doc["breakpoints"], doc["thetas"])


def evaluate_H(H: StepHamiltonian, t: float) -> np.ndarray:
    """The 2x2 rank-one Hamiltonian value at time t."""
    t = float(t)
    if t < 0.0 or t >= H.t_end:
        raise OutOfRangeError(f"t={t} outside covered range [0, {H.t_end})")
    th = H.thetas[np.searchsorted(H.breakpoints, t, side="right") - 1]
    c, s = math.cos(th), math.sin(th)
    return np.array([[c * c, c * s], [c * s, s * s]])


def kac_algorithm(a, b, m: int) -> StepHamiltonian:
    """Angle/length recursion from scalar Jacobi coefficients.

    l_0 = 1, theta_0 = pi/2, theta_1 = arctan(a_0) + pi, then alternately
    l_j = 1 / (l_{j-1} b_{j-1}^2 sin^2(theta_j - theta_{j-1})) and
    cot(theta_{j+1} - theta_j) = -a_j l_j - cot(theta_j - theta_{j-1}) with
    theta_{j+1} in (theta_j, theta_j + pi).  Returns the first m intervals.
    """
    if m < 1:
        raise ValueError("need at least one interval")
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if not all(map(math.isfinite, a + b)):
        raise ValueError("coefficients must be finite")
    if any(x <= 0 for x in b):
        raise ValueError("off-diagonal coefficients must be positive")
    if m > 1 and (len(a) < m - 1 or len(b) < m - 1):
        raise ValueError("not enough coefficients for the requested interval count")

    thetas = [math.pi / 2.0]
    lengths = [1.0]
    theta_prev = 0.0  # theta_{-1}
    for j in range(1, m):
        if j == 1:
            theta_next = math.atan(a[0]) + math.pi
        else:
            gap = thetas[-1] - theta_prev
            s = math.sin(gap)  # the previous step's s_new, already checked
            c = -a[j - 1] * lengths[-1] - math.cos(gap) / s
            # acot branch mapping R onto (0, pi)
            theta_next = thetas[-1] + (math.pi / 2.0 - math.atan(c))
        gap_new = theta_next - thetas[-1]
        s_new = math.sin(gap_new)
        if abs(s_new) < _SIN_TOL:
            raise DegenerateStepError(f"degenerate angle step at j={j}")
        l_next = 1.0 / (lengths[-1] * b[j - 1] ** 2 * s_new * s_new)
        theta_prev = thetas[-1]
        thetas.append(theta_next)
        lengths.append(l_next)
    # cumsum adds in sequence, as a running sum would
    return StepHamiltonian(np.concatenate([[0.0], np.cumsum(lengths)]), np.array(thetas))


def hamiltonian_H0(m: int) -> StepHamiltonian:
    """Unit intervals with theta_j = (j+1) pi/2: the alternating diagonal
    Hamiltonian of the free discrete Schroedinger matrix."""
    if m < 1:
        raise ValueError("need at least one interval")
    return StepHamiltonian(np.arange(m + 1.0), _quarter_turns(m))


def _quarter_turns(count: int) -> np.ndarray:
    """pi/2, 2*(pi/2), ... by repeated addition.

    Every angle-shift construction in this module accumulates pi/2 steps one
    addition at a time: here along the array (cumsum adds in sequence), in
    hamiltonian_Hn as n in-place additions to the whole angle array (never
    th + n*pi/2, which rounds differently).  So Hamiltonians built along
    different routes agree bit-for-bit, not just to rounding.
    """
    return np.full(count, math.pi / 2.0).cumsum()


def hamiltonian_Hn(H: StepHamiltonian, n: int) -> StepHamiltonian:
    """Hamiltonian of the n-th gamma_hat iterate of H's m-function.

    The alternating prefix covers [0, n+1); H's angle data from its second
    interval onward is shifted right by n with angles raised by n pi/2.
    """
    if n < 1:
        raise OutOfRangeError("need shift index n >= 1")
    # H's first interval [0, 1) shifts to [n, n+1) with angle
    # pi/2 + n pi/2 = (n+1) pi/2, so the prefix continues seamlessly and the
    # whole of [0, n+1) matches the alternating Hamiltonian.
    thetas = np.concatenate([_quarter_turns(n), H.thetas])
    for _ in range(n):
        thetas[n:] += math.pi / 2.0
    return StepHamiltonian(np.concatenate([np.arange(n + 1.0), H.breakpoints[1:] + n]), thetas)


def gammahat_hamiltonian(H: StepHamiltonian) -> StepHamiltonian:
    """Hamiltonian realizing gamma_hat of H's m-function: the alternating
    prefix on [0, 2), then I - H(t-1) which shifts each angle by pi/2."""
    return hamiltonian_Hn(H, 1)
