"""Block Jacobi truncations and their m-functions.

The m-function is the top-left d x d block of (J - lam I)^{-1}, computed two
independent ways: a block-tridiagonal (Thomas) solve and the backward
continued-fraction (J-fraction) recursion.  The two must agree; tests exploit
this as a dual-route check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CutError, PoleError
from .herglotz import POLE_RESIDUAL_TOL, _as_complex, _finite_inv, _hermitian, _matrix_from_json, _matrix_to_json


#: largest 1-norm condition number of an off-diagonal block; above it the block counts as singular
OFFDIAG_COND_MAX = 1e12


@dataclass(frozen=True)
class BlockJacobi:
    """Finite N-block truncation of a (block) Jacobi matrix.

    ``a`` is the (N, d, d) stack of Hermitian diagonal blocks, ``b`` the
    (N-1, d, d) stack of superdiagonal blocks; the subdiagonal carries
    ``b_k*`` so the assembled matrix is Hermitian.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a, b, N, d = self.a, self.b, self.N, self.d
        if N < 1 or len(b) != N - 1:
            raise ValueError("need N >= 1 diagonal blocks and N-1 off-diagonal blocks")
        if a.shape != (N, d, d) or b.shape != (N - 1, d, d):
            raise ValueError("all blocks must be d x d")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("blocks must be finite")
        if not _hermitian(a, 1e-12):
            raise ValueError("diagonal blocks must be Hermitian")
        if np.any(np.linalg.cond(b, 1) > OFFDIAG_COND_MAX):
            raise ValueError(f"off-diagonal blocks must be invertible, with condition number <= {OFFDIAG_COND_MAX:g}")

    @classmethod
    def of(cls, a, b) -> "BlockJacobi":
        """From d x d blocks or scalars (d = 1), as sequences or arrays; ragged input raises ValueError."""
        a, b = (np.array(x, dtype=complex) for x in (a, b))  # copies; ragged blocks raise ValueError here
        a, b = (x.reshape(-1, 1, 1) if x.ndim == 1 else x for x in (a, b))  # a scalar is a 1 x 1 block
        return cls(a=a, b=b if len(b) else b.reshape((0,) + a.shape[1:]))  # b = [] goes with any d

    @property
    def N(self) -> int:
        return len(self.a)

    @property
    def d(self) -> int:
        return self.a.shape[-1]

    def dense(self) -> np.ndarray:
        d, N = self.d, self.N
        J = np.zeros((N, d, N, d), dtype=complex)
        k = np.arange(N)
        J[k, :, k, :] = self.a
        J[k[:-1], :, k[1:], :] = self.b
        J[k[1:], :, k[:-1], :] = np.swapaxes(self.b.conj(), -1, -2)
        return J.reshape(N * d, N * d)

    def truncate(self, N: int) -> "BlockJacobi":
        if not 1 <= N <= self.N:
            raise ValueError("truncation length out of range")
        return BlockJacobi(a=self.a[:N], b=self.b[: N - 1])

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "a": [_matrix_to_json(x) for x in self.a],
                "b": [_matrix_to_json(x) for x in self.b],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "BlockJacobi":
        doc = json.loads(text)
        a = [_matrix_from_json(x) for x in doc["a"]]
        b = [_matrix_from_json(x) for x in doc["b"]]
        J = cls.of(a, b)
        if J.d != doc["d"]:
            raise ValueError("declared block dimension does not match the blocks")
        return J


def build_J0(d: int, N: int) -> BlockJacobi:
    """Truncation of the Chebyshev (first kind) matrix: a_k = 0, b_0 = I/sqrt(2), b_k = I/2."""
    return _free_jacobi(d, N, [np.sqrt(2.0)] + [2.0] * (N - 2))


def build_Jhat0(d: int, N: int) -> BlockJacobi:
    """Truncation of the free discrete Schroedinger matrix: a_k = 0, b_k = I."""
    return _free_jacobi(d, N, [1.0] * (N - 1))


def _free_jacobi(d: int, N: int, b_divisors: list) -> BlockJacobi:
    if d < 1 or N < 2:
        raise ValueError("need d >= 1 and N >= 2")
    eye = np.eye(d, dtype=complex)
    return BlockJacobi.of(np.zeros((N, d, d), dtype=complex), eye / np.reshape(b_divisors, (-1, 1, 1)))


def m_resolvent(J: BlockJacobi, lam) -> np.ndarray:
    """Top-left block of (J - lam I)^{-1} via a block Thomas solve, O(N) in blocks.

    lam may have any shape; the result has shape lam.shape + (d, d).
    """
    lam = _as_complex(lam)
    d, N = J.d, J.N
    eye = np.eye(d, dtype=complex)
    shift = np.multiply.outer(lam, eye)
    # every right-hand side carries lam's axes (as ones): numpy < 2 reads a
    # b with one axis fewer than the matrices as a stack of vectors
    lead = (1,) * np.ndim(lam)
    bH = J.b.conj().reshape((N - 1,) + lead + (d, d))
    # forward elimination on (J - lam) X = E0
    diag = [None] * N
    rhs = [None] * N
    diag[0] = J.a[0] - shift
    rhs[0] = eye.reshape(lead + (d, d))
    try:
        for k in range(1, N):
            dT = np.swapaxes(diag[k - 1], -1, -2)
            factor = np.swapaxes(np.linalg.solve(dT, bH[k - 1]), -1, -2)  # b_{k-1}^* d_{k-1}^{-1}
            diag[k] = (J.a[k] - shift) - factor @ J.b[k - 1]
            rhs[k] = -factor @ rhs[k - 1]
        x = [None] * N
        x[N - 1] = np.linalg.solve(diag[N - 1], rhs[N - 1])
        for k in range(N - 2, -1, -1):
            x[k] = np.linalg.solve(diag[k], rhs[k] - J.b[k] @ x[k + 1])
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"singular shift at lambda={lam}") from exc
    # pole guard on the O(N) block residual: a dense one would build the N d x N d matrix
    X = np.stack(x, axis=-3)
    r = (J.a - shift[..., None, :, :]) @ X
    r[..., 1:, :, :] += np.swapaxes(J.b.conj(), -1, -2) @ X[..., :-1, :, :]
    r[..., :-1, :, :] += J.b @ X[..., 1:, :, :]
    r[..., 0, :, :] -= eye
    res = np.max(np.linalg.norm(r, axis=(-2, -1)))
    if res > POLE_RESIDUAL_TOL * np.sqrt(d):
        raise PoleError(f"solve residual {res:.3e}: lambda={lam} is near the truncation spectrum")
    return x[0]


def m_cf(J: BlockJacobi, lam) -> np.ndarray:
    """Finite J-fraction by backward Schur-complement recursion.

    m_N = (a_{N-1} - lam)^{-1};  m_k = (a_k - lam - b_k m_{k+1} b_k^*)^{-1}.
    Equals m_resolvent exactly in exact arithmetic.  lam may have any shape;
    the result has shape lam.shape + (d, d).
    """
    lam = _as_complex(lam)
    N = J.N
    shift = np.multiply.outer(lam, np.eye(J.d, dtype=complex))
    bH = np.swapaxes(J.b.conj(), -1, -2)
    try:
        m = _finite_inv(J.a[N - 1] - shift)
        for k in range(N - 2, -1, -1):
            m = _finite_inv(J.a[k] - shift - J.b[k] @ m @ bH[k])
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"singular shift in the J-fraction at lambda={lam}") from exc
    return m


def quadrature_m0(lam, nodes: int, kind: int):
    """Gauss-Chebyshev oracle for the two closed-form fixed points.

    kind 1: (1/pi) int_{-1}^{1} (t-lam)^{-1} (1-t^2)^{-1/2} dt
    kind 2: (1/2pi) int_{-2}^{2} (t-lam)^{-1} sqrt(4-t^2) dt

    lam of any shape gives lam.shape (a Python complex for a scalar), holding points x nodes numbers.
    """
    lam = _as_complex(lam)
    if nodes < 1:
        raise ValueError("need at least one node")
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    # the cut of kind k is [-k, k]
    if np.any((np.imag(lam) == 0.0) & (np.abs(np.real(lam)) <= kind)):
        raise CutError(f"lambda on the cut [-{kind}, {kind}]")
    i = np.arange(1, nodes + 1)
    lam_t = np.expand_dims(lam, -1)
    # the (points, nodes) terms are divided in place: one such array at a time
    if kind == 1:
        z = np.cos((2 * i - 1) * np.pi / (2 * nodes)) - lam_t
        val = np.sum(np.divide(1.0, z, out=z), axis=-1) / nodes
    else:
        theta = i * np.pi / (nodes + 1)
        z = 2.0 * np.cos(theta) - lam_t
        val = 2.0 / (nodes + 1) * np.sum(np.divide(np.sin(theta) ** 2, z, out=z), axis=-1)
    return complex(val) if np.ndim(lam) == 0 else val
