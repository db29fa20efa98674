"""Branch-correct square roots and the closed-form fixed points of the two
Moebius-type transformations.

All functions are pure and stateless.  They take lam of any shape: a scalar
gives a Python complex, an array an array of the same shape.  The square root
``sqrt(lam**2 - c**2)`` is computed as the product of principal square roots
``sqrt(lam - c) * sqrt(lam + c)``, which is analytic off the real segment
``[-c, c]`` and asymptotic to ``lam`` at infinity.
"""

from __future__ import annotations

import numpy as np

from .errors import CutError
from .herglotz import _as_complex

#: points closer than this to the cut are rejected, never perturbed
CUT_TOL = 1e-12


def sqrt_offcut(lam, c: float):
    """sqrt(lam^2 - c^2) on the branch analytic off [-c, c], of lam.shape.

    The branch is asymptotic to ``lam`` at infinity, has positive imaginary
    part in the upper half-plane, and satisfies f(conj lam) = conj f(lam).
    """
    if not c > 0:
        raise ValueError("cut half-length c must be positive")
    lam = _as_complex(lam)
    if isinstance(lam, complex):  # Python arithmetic on one point rounds as numpy's does
        on_cut = abs(lam - min(max(lam.real, -c), c)) < CUT_TOL
    else:
        on_cut = np.any(np.abs(lam - np.clip(lam.real, -c, c)) < CUT_TOL)
    if on_cut:
        raise CutError(f"lambda={lam} lies on the cut [{-c}, {c}]")
    root = np.sqrt(lam - c) * np.sqrt(lam + c)
    return complex(root) if isinstance(lam, complex) else root


def m0_gamma(lam):
    """Fixed point -1/sqrt(lam^2 - 1) of M -> M^{-1}/(lam^2 - 1)."""
    return -1.0 / sqrt_offcut(lam, 1.0)


def m0_gammahat(lam):
    """Fixed point (-lam + sqrt(lam^2 - 4))/2 = -2/(lam + sqrt(lam^2 - 4)) of M -> -(M + lam)^{-1}.

    The code uses the second form.  The first cancels for |lam| >> 2, where
    sqrt(lam^2 - 4) ~ lam: its relative error grows like |lam|^2 u (about 0.5
    at lam = 1e8 i).  The two roots of M^2 + lam M + 1 multiply to 1, so
    |lam + sqrt(lam^2 - 4)| = 2/|M| >= 2 and the second form never cancels.

    It is computed as -(1/2)/(lam/4 + sqrt(lam^2 - 4)/4).  Near the float
    maximum lam + sqrt(lam^2 - 4) overflows (NaN at lam = 1e308 + 1e308i), and
    a half of it still overflows the denominator of the complex division
    (-0 at that lam); a quarter does neither.  Scaling by powers of two is
    exact, so a value keeps its bits unless a part of lam/4, of the result or
    of a quotient inside the division is subnormal; there its last bits, or
    the sign of a zero part, may move.
    """
    lam = _as_complex(lam)
    return -0.5 / (lam / 4 + sqrt_offcut(lam, 2.0) / 4)
