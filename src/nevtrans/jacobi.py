"""Block Jacobi truncations and their m-functions.

The m-function is the top-left d x d block of (J - lam I)^{-1}, computed two
independent ways, each in ceil(log2 N) batched levels: block cyclic reduction
of the block-tridiagonal system, and a pairwise composition of the
continued-fraction (J-fraction) maps.  The two must agree; tests exploit this
as a dual-route check.  Both solve their stacks of blocks through ``_solve``,
which divides when the blocks are 1 x 1 (d = 1) instead of calling LAPACK
once per block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CutError, PoleError
from .herglotz import POLE_RESIDUAL_TOL, _as_complex, _hermitian, _matrix_from_json, _matrix_to_json


#: largest 1-norm condition number of an off-diagonal block; above it the block counts as singular
OFFDIAG_COND_MAX = 1e12


@dataclass(frozen=True, eq=False)
class BlockJacobi:
    """Finite N-block truncation of a (block) Jacobi matrix.

    ``a`` is the (N, d, d) stack of Hermitian diagonal blocks, ``b`` the
    (N-1, d, d) stack of superdiagonal blocks; the subdiagonal carries
    ``b_k*`` so the assembled matrix is Hermitian.  ``==`` is identity: a
    field-wise comparison of arrays has no single truth value.
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
        if d == 1:
            # ||b||_1 ||b^{-1}||_1 of a 1 x 1 block; a zero block (0 * inf) counts as infinite
            with np.errstate(all="ignore"):
                cond = np.where(b != 0, np.abs(b) * np.abs(1 / b), np.inf)
        else:
            cond = np.linalg.cond(b, 1)
        if np.any(cond > OFFDIAG_COND_MAX):
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


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.linalg.solve(A, B) on stacks of d x d blocks, 1 x 1 blocks by one division.

    The division is as silent as LAPACK about overflow, and an exactly zero
    pivot raises LinAlgError as LAPACK does; d > 1 calls np.linalg.solve.
    """
    if A.shape[-1] > 1:
        return np.linalg.solve(A, B)
    if not np.all(A):
        raise np.linalg.LinAlgError("Singular matrix")
    with np.errstate(all="ignore"):
        return B / A


def m_resolvent(J: BlockJacobi, lam) -> np.ndarray:
    """Top-left block of (J - lam I)^{-1} by block cyclic reduction, ceil(log2 N) levels.

    Row k of (J - lam) X = E0 reads L_k X_{k-1} + D_k X_k + U_k X_{k+1} = R_k.
    Each level eliminates the odd rows in one batched solve and leaves a
    block-tridiagonal system in the even rows, half as long; back-substitution
    then recovers every X_k for the residual guard.  No pivot can blow up:
    each D_o is a diagonal block of a Schur complement of J - lam, hence a
    Schur complement of J - lam itself.  Its imaginary part (D - D^*)/2i is
    -Im lam I minus a positive semidefinite term for Im lam > 0 (plus one for
    Im lam < 0), so ||D_o^{-1}|| <= 1/|Im lam|.  For d = 1 the pivots are
    divided out, one elementwise division per level.

    lam may have any shape; the result has shape lam.shape + (d, d).  The
    levels hold O(points * N * d^2) numbers.  A real lam at which a pivot is
    singular (a_k - lam for an odd k, on the first level) raises PoleError
    even off the spectrum.  The residual guard is what certifies the value:
    it also raises at a pole that no pivot shows as singular.
    """
    lam = _as_complex(lam)
    d, N = J.d, J.N
    eye = np.eye(d, dtype=complex)
    shift = np.multiply.outer(lam, eye)
    lead = np.shape(lam)
    zero = np.zeros((1, d, d), dtype=complex)
    # C_k = [L_k | U_k | R_k], with L_0 = U_{N-1} = 0 and R = E0; lam's axes as
    # ones, since numpy < 2 reads a solve right-hand side with one axis fewer
    # than the matrices as a stack of vectors
    C = np.concatenate([
        np.concatenate([zero, np.swapaxes(J.b.conj(), -1, -2)]),
        np.concatenate([J.b, zero]),
        np.concatenate([eye[None], np.zeros((N - 1, d, d))]),
    ], axis=-1).reshape((1,) * len(lead) + (N, d, 3 * d))
    D = J.a - shift[..., None, :, :]
    levels = []
    try:
        while D.shape[-3] > 1:
            # odd rows: X_o = rho_o - alpha_o X_{o-1} - beta_o X_{o+1}, [alpha | beta | rho] = D_o^{-1} C_o
            abr = _solve(D[..., 1::2, :, :], C[..., 1::2, :, :])
            levels.append(abr)
            # substitute them into the even rows; the odd row before row 0, and
            # after a last even row, is zero (L_0 = 0 and U_{n-1} = 0 anyway)
            pad = np.zeros(abr.shape[:-3] + (1, d, 3 * d), dtype=complex)
            odd = np.concatenate([pad, abr] + [pad] * (D.shape[-3] % 2), axis=-3)
            C = C[..., ::2, :, :]
            left, right = C[..., :d] @ odd[..., :-1, :, :], C[..., d:2 * d] @ odd[..., 1:, :, :]
            D = D[..., ::2, :, :] - left[..., d:2 * d] - right[..., :d]
            R = C[..., 2 * d:] - left[..., 2 * d:] - right[..., 2 * d:]
            C = np.concatenate([-left[..., :d], -right[..., d:2 * d], R], axis=-1)
        X = _solve(D, C[..., 2 * d:])
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"singular shift at lambda={lam}") from exc
    for abr in reversed(levels):
        # the even rows are known: each odd row takes the even rows around it (zero past the end)
        n_odd = abr.shape[-3]
        ends = np.concatenate([X, np.zeros(X.shape[:-3] + (1, d, d), dtype=complex)], axis=-3)[..., :n_odd + 1, :, :]
        X_odd = abr[..., 2 * d:] - abr[..., :2 * d] @ np.concatenate([ends[..., :-1, :, :], ends[..., 1:, :, :]], -2)
        X, X_even = np.empty(X.shape[:-3] + (X.shape[-3] + n_odd, d, d), dtype=complex), X
        X[..., ::2, :, :], X[..., 1::2, :, :] = X_even, X_odd
    # pole guard on the O(N) block residual: a dense one would build the N d x N d matrix
    r = (J.a - shift[..., None, :, :]) @ X
    r[..., 1:, :, :] += np.swapaxes(J.b.conj(), -1, -2) @ X[..., :-1, :, :]
    r[..., :-1, :, :] += J.b @ X[..., 1:, :, :]
    r[..., 0, :, :] -= eye
    res = np.max(np.linalg.norm(r, axis=(-2, -1)))
    if not res <= POLE_RESIDUAL_TOL * np.sqrt(d):  # a NaN residual fails too
        raise PoleError(f"solve residual {res:.3e}: lambda={lam} is near the truncation spectrum")
    return X[..., 0, :, :].copy()  # a view would keep all N blocks of X alive


def m_cf(J: BlockJacobi, lam) -> np.ndarray:
    """Finite J-fraction m = f_0(f_1(... f_{N-1}(0))), f_k(w) = (a_k - lam - b_k w b_k^*)^{-1}.

    That is m_N = (a_{N-1} - lam)^{-1}, m_k = (a_k - lam - b_k m_{k+1} b_k^*)^{-1},
    with the maps composed pairwise in ceil(log2 N) levels.  Each map is held
    in Redheffer star form, w -> S11 + S12 w (I - S22 w)^{-1} S21, with
    S11 = c^{-1}, S12 = c^{-1} b_k, S21 = b_k^* c^{-1}, S22 = b_k^* c^{-1} b_k
    and c = a_k - lam.  b_{N-1} = 0 makes the last map the constant c^{-1},
    so m is S11 of the whole composition.  The blocks of a composition are
    corner blocks of the resolvent of its stretch of the chain (times b), so
    they stay bounded, where a product of 2d x 2d transfer matrices loses
    rank for d > 1.  Equals m_resolvent exactly in exact arithmetic.  For
    d = 1 the leaves and merges divide instead of calling LAPACK.

    lam may have any shape; the result has shape lam.shape + (d, d).  The
    tree holds O(points * N * d^2) numbers, a stack of N (2d, 2d) blocks per
    point and its temporaries.  A real lam at which some a_k - lam is
    singular raises PoleError even where the fraction itself is finite.
    There is no residual guard: at a pole that rounding leaves merely
    near-singular it returns a huge finite value where m_resolvent raises.
    """
    lam = _as_complex(lam)
    d, lead = J.d, np.shape(lam)
    eye = np.eye(d, dtype=complex)
    b = np.concatenate([J.b, np.zeros((1, d, d))])
    # [S11 | S12] = c^{-1} [I | b] and [S21 | S22] = b^* [S11 | S12]; the
    # right-hand side carries lam's axes as ones, as in m_resolvent
    eye_b = np.concatenate([np.broadcast_to(eye, b.shape), b], axis=-1).reshape((1,) * len(lead) + (J.N, d, 2 * d))
    try:
        S = _solve(J.a - np.multiply.outer(lam, eye)[..., None, :, :], eye_b)
        S = np.concatenate([S, np.swapaxes(b.conj(), -1, -2) @ S], axis=-2)
        while S.shape[-3] > 1:
            n_pairs = S.shape[-3] // 2
            outer, inner = S[..., 0:2 * n_pairs:2, :, :], S[..., 1:2 * n_pairs:2, :, :]
            # S * T from one factorisation of I - S22 T11, V = (I - S22 T11)^{-1} [S21 | S22 T12]:
            # [H11 | H12] = [S11 | S12 T12] + S12 T11 V,  [H21 | H22] = [0 | T22] + T21 V.
            # A solve, not inv(I - S22 T11) @ [...]: on random d = 3 chains near
            # the real axis the inverse lost up to 400 times more accuracy.
            s22_t = outer[..., d:, d:] @ inner[..., :d, :]  # [S22 T11 | S22 T12]
            s12_t = outer[..., :d, d:] @ inner[..., :d, :]  # [S12 T11 | S12 T12]
            V = _solve(eye - s22_t[..., :d], np.concatenate([outer[..., d:, :d], s22_t[..., d:]], axis=-1))
            top = np.concatenate([outer[..., :d, :d], s12_t[..., d:]], axis=-1) + s12_t[..., :d] @ V
            bottom = inner[..., d:, :d] @ V
            bottom[..., d:] += inner[..., d:, d:]
            # an odd one out, the last map, goes up a level unchanged
            S = np.concatenate([np.concatenate([top, bottom], axis=-2), S[..., 2 * n_pairs:, :, :]], axis=-3)
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"singular shift in the J-fraction at lambda={lam}") from exc
    m = S[..., 0, :d, :d].copy()  # not a view that keeps S alive
    if not np.all(np.isfinite(m)):
        raise PoleError(f"the J-fraction is not finite at lambda={lam}")
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
