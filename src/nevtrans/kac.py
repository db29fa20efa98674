"""Scalar Jacobi coefficients -> piecewise-constant rank-one Hamiltonians.

Implements I.S. Kac's recursion converting (a_k, b_k) into a step Hamiltonian
whose canonical-system m-function equals the Jacobi m-function, plus the
explicit alternating Hamiltonian of the free discrete Schroedinger matrix and
the angle-shift constructions for the gamma_hat iterates.  The recursion runs
on the cotangents of the angle gaps and on the interval lengths, not on
differences of cumulative angles, which near theta = 200 resolve a gap only
to about 3e-14.  The angle-shift constructions build and read breakpoints and
angles as float64 arrays, and shift them whole with the same IEEE additions in
the same order as shifting each angle on its own, so they give the same bits.

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

    l_0 = 1 and theta_0 = pi/2; the gap g_j = theta_j - theta_{j-1} in (0, pi)
    is carried as its cotangent c_j, so the loop takes no trig: c_1 = -a_0,
    l_j = (1 + c_j^2) / (l_{j-1} b_{j-1}^2), which is
    1 / (l_{j-1} b_{j-1}^2 sin^2 g_j), and c_{j+1} = -a_j l_j - c_j.  The
    angles follow in one pass, theta_j = (j + 1) pi/2 - sum_{i<=j} arctan c_i,
    and the breakpoints are the running sums of the lengths.  Returns the first
    m intervals.

    Raises DegenerateStepError naming the first j whose stored gap
    theta_j - theta_{j-1} is not positive or has |sine| below _SIN_TOL, whose
    cotangent puts the gap itself within that sine of 0 or pi
    (|c_j| >= 1/_SIN_TOL), or whose length is zero or not finite, or vanishes
    in the running sum.
    """
    if m < 1:
        raise ValueError("need at least one interval")
    a = list(map(float, a))
    b = list(map(float, b))
    # a finite sum shows every term finite; only an overflowing sum needs the term-wise test
    if not math.isfinite(sum(a) + sum(b)) and not all(map(math.isfinite, a + b)):
        raise ValueError("coefficients must be finite")
    if b and min(b) <= 0:
        raise ValueError("off-diagonal coefficients must be positive")
    if m > 1 and (len(a) < m - 1 or len(b) < m - 1):
        raise ValueError("not enough coefficients for the requested interval count")

    cots, lengths = [], [1.0]
    c, length = 0.0, 1.0
    try:
        for aj, bj in zip(a[: m - 1], b):
            c = -aj * length - c
            length = (1.0 + c * c) / (length * bj * bj)
            cots.append(c)
            lengths.append(length)
    except ZeroDivisionError:  # l_{j-1} b_{j-1}^2 rounds to zero, so l_j has no finite value
        cots.append(c)
        lengths.append(math.inf)
    n = len(lengths)
    cot = np.fromiter(cots, float, n - 1)
    thetas = np.arange(1.0, n + 1.0) * (math.pi / 2.0)
    thetas[1:] -= np.arctan(cot).cumsum()  # cumsum adds in sequence, as a running sum would
    with np.errstate(over="ignore"):  # an overflowing sum is caught below as a non-finite breakpoint
        t = np.fromiter(lengths, float, n).cumsum()
    gap = thetas[1:] - thetas[:-1]
    bad = ~((t[1:] > t[:-1]) & (t[1:] < math.inf))
    bad |= ~(gap > 0.0) | (np.abs(np.sin(gap)) < _SIN_TOL) | (np.abs(cot) >= 1.0 / _SIN_TOL)
    if bad.any():
        raise DegenerateStepError(f"degenerate angle step at j={int(bad.argmax()) + 1}")
    return StepHamiltonian(np.concatenate(([0.0], t)), thetas)


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
