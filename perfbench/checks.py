"""Reference computations and output checks for the benchmark.

Everything here is plain numpy and never calls nevtrans: each check compares
a program output with a value computed apart from the program, or with a
property the method must have.  A check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

#: agreement of two floating-point routes, relative to 1 + |value| / |Im lam|
ROUTE_TOL = 1e-12

#: Gram matrices count as PSD down to this relative negative eigenvalue
PSD_TOL = 1e-10

#: rounding allowance added to Weyl-disk radii, which can fall below machine precision
DISK_SLACK = 1e-12


def _scale(value, lam) -> float:
    return (1.0 + float(np.max(np.abs(value)))) / min(1.0, abs(complex(lam).imag))


def close(got, want, lam, what: str, tol: float = ROUTE_TOL) -> list:
    """|got - want| within tol, scaled by the value and by 1/|Im lam|."""
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= tol * _scale(want, lam):
        return [f"{what}: deviation {err:.3e} at lambda={complex(lam):.4g}"]
    return []


# -- closed forms ----------------------------------------------------------

def free_root(lam: complex) -> complex:
    """The root z of z^2 + lam z + 1 = 0 with |z| < 1 (the two roots multiply to 1)."""
    s = np.sqrt(complex(lam) ** 2 - 4.0)
    z1, z2 = (-lam + s) / 2.0, (-lam - s) / 2.0
    return complex(z1 if abs(z1) < abs(z2) else z2)


def m_free(lam: complex, N: int) -> complex:
    """m-function of the N x N free matrix (a_k = 0, b_k = 1).

    Starting from m = 0, N steps of m -> -1/(m + lam) give
    z (1 - z^2N) / (1 - z^(2N+2)), which tends to (-lam + sqrt(lam^2-4))/2.
    """
    z = free_root(lam)
    return z * (1.0 - z ** (2 * N)) / (1.0 - z ** (2 * N + 2))


def m_chebyshev(lam: complex, N: int) -> complex:
    """m-function of the N x N Chebyshev matrix (a_k = 0, b_0 = 1/sqrt 2, b_k = 1/2).

    Its tail is half the free matrix of size N-1, so
    m = -1 / (lam + m_free(2 lam, N-1)), which tends to -1/sqrt(lam^2-1).
    """
    return -1.0 / (lam + m_free(2.0 * lam, N - 1))


def gamma_hat(M, lam):
    M = np.atleast_2d(M)
    return -np.linalg.inv(M + lam * np.eye(M.shape[0]))


# -- dense references --------------------------------------------------------

def dense_jacobi(a, b) -> np.ndarray:
    """Hermitian block tridiagonal matrix with diagonal blocks a, superdiagonal b."""
    N, d = len(a), a[0].shape[0]
    J = np.zeros((N * d, N * d), dtype=complex)
    for k in range(N):
        J[k * d:(k + 1) * d, k * d:(k + 1) * d] = a[k]
    for k in range(N - 1):
        J[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = b[k]
        J[(k + 1) * d:(k + 2) * d, k * d:(k + 1) * d] = b[k].conj().T
    return J


def prepend_free(a, b, n: int):
    """Blocks of J with n free blocks (a = 0, b = I) put in front of it."""
    d = a[0].shape[0]
    zero, eye = np.zeros((d, d), dtype=complex), np.eye(d, dtype=complex)
    return [zero] * n + list(a), [eye] * n + list(b)


class Spectral:
    """Dense eigendecomposition of T, giving K* (T - lam)^-1 K for any lam."""

    def __init__(self, T, K):
        self.w, V = np.linalg.eigh(T)
        self.KV = V.conj().T @ K

    def m(self, lam: complex) -> np.ndarray:
        return self.KV.conj().T @ (self.KV / (self.w - lam)[:, None])

    @classmethod
    def of_jacobi(cls, a, b) -> "Spectral":
        """The m-function of the block Jacobi matrix with blocks a, b, assembled here."""
        J = dense_jacobi(a, b)
        return cls(J, np.eye(J.shape[0])[:, :a[0].shape[0]])


# -- checks -------------------------------------------------------------------

def check_symmetry(M_lam, M_conj, lam) -> list:
    """M(conj lam) = M(lam)*, and Im M(lam) has the sign of Im lam."""
    out = close(M_conj, np.atleast_2d(M_lam).conj().T, lam, "M(conj lam) vs M(lam)*")
    M = np.atleast_2d(M_lam)
    im = np.linalg.eigvalsh((M - M.conj().T) / 2j) * np.sign(complex(lam).imag)
    if im.min() < -ROUTE_TOL * _scale(M, lam):
        out.append(f"Im M has the wrong sign at lambda={complex(lam):.4g}: {im.min():.3e}")
    return out


def check_contraction(values, lam) -> list:
    """Gamma_hat iterates from M = 0 approach the fixed point at rate |Im lam|^-2."""
    z = free_root(lam)
    rate = 1.0 / abs(complex(lam).imag) ** 2
    prev = abs(z)  # distance of the starting value 0 from the fixed point
    for k, val in enumerate(values):
        V = np.atleast_2d(val)
        res = float(np.linalg.norm(V - z * np.eye(V.shape[0]), 2))
        if res > rate * prev * (1.0 + 1e-9) + 1e-13:
            return [f"iterate {k + 1} at lambda={complex(lam):.4g}: residual {res:.3e} > {rate:.3f} x {prev:.3e}"]
        prev = res
    return []


def check_psd(G, what: str) -> list:
    w = np.linalg.eigvalsh((G + G.conj().T) / 2.0)
    if w.min() < -PSD_TOL * (1.0 + np.abs(w).max()):
        return [f"{what} is not PSD: min eigenvalue {w.min():.3e}"]
    return []


def check_norm_le_one(T, what: str) -> list:
    norm = float(np.linalg.norm(T, 2))
    if norm > 1.0 + 1e-12:
        return [f"{what} has norm {norm!r} > 1"]
    return []


def gamma_hat_disk(center: complex, radius: float, lam: complex, n: int) -> tuple:
    """Image of a disk under n steps of m -> -1/(m + lam).

    Shifting by lam keeps the radius; w -> 1/w maps the disk |w - c| <= r
    (0 outside it) onto the disk with centre conj(c)/(|c|^2 - r^2) and radius
    r/(|c|^2 - r^2); negation moves the centre only.
    """
    for _ in range(n):
        c = center + lam
        den = abs(c) ** 2 - radius ** 2
        center, radius = -np.conj(c) / den, radius / den
    return complex(center), float(radius)


def check_in_disk(value, center, radius, what: str) -> list:
    dist = abs(complex(value) - complex(center))
    if not dist <= radius + DISK_SLACK:
        return [f"{what}: distance {dist:.3e} exceeds radius {radius:.3e}"]
    return []


def check_disks_meet(c1, r1, c2, r2, what: str) -> list:
    dist = abs(complex(c1) - complex(c2))
    if not dist <= r1 + r2 + DISK_SLACK:
        return [f"{what}: centres {dist:.3e} apart, radii {r1:.3e} + {r2:.3e}"]
    return []
