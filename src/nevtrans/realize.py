"""Realization constructions: defect operators, the block-contraction dilation
realizing gamma of a compressed resolvent, chain operators realizing the
gamma_hat iterates, Schur-Frobenius compressed resolvents, and simplicity
(minimality) checks.

The distinguished subspace is always embedded as the leading d coordinates,
so block patterns are directly assertable on the assembled matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .herglotz import (_as_columns, _as_complex, _check_contraction, _eigen_blocks, _finite_inv, _hermitian,
                       _resolvent_solve)

#: singular values below RANK_TOL * s_max count as zero
RANK_TOL = 1e-10

#: dense dimension cap for chain assembly
CHAIN_DIM_CAP = 2000


@dataclass(frozen=True, eq=False)
class SubspaceRealization:
    """Hermitian operator T on an n-dim space with a distinguished d-dim subspace."""

    T: np.ndarray
    M_basis: np.ndarray  # n x d, orthonormal columns

    def __post_init__(self):
        if not _hermitian(self.T):
            raise ValueError("T must be Hermitian")
        B = self.M_basis
        gram = B.conj().T @ B
        if not np.max(np.abs(gram - np.eye(B.shape[1]))) <= 1e-10:
            raise ValueError("M_basis columns must be orthonormal")

    @classmethod
    def of(cls, T, M_basis) -> "SubspaceRealization":
        return cls(T=np.atleast_2d(np.asarray(T, dtype=complex)), M_basis=_as_columns(M_basis))

    @property
    def d(self) -> int:
        return self.M_basis.shape[1]

    def m_function(self, lam) -> np.ndarray:
        return compressed_resolvent(self.T, self.M_basis, lam)


@dataclass(frozen=True, eq=False)
class ChainOperator:
    """Realization of the (n+1)-th gamma_hat iterate: n copies of the corner
    subspace chained onto the seed realization (K, That), assembled into one
    matrix whose leading d coordinates are the distinguished subspace."""

    assembled: np.ndarray
    d: int

    def m_basis(self) -> np.ndarray:
        """Orthonormal basis of the distinguished subspace: the leading d coordinates."""
        return np.eye(self.assembled.shape[0], self.d, dtype=complex)


def defect_operator(T: np.ndarray):
    """(I - T^2)^{1/2} of a Hermitian contraction and a basis of its range.

    Eigenvalues of 1 - t^2 are clamped at zero; range vectors are eigenvectors
    with defect above the relative rank tolerance.
    """
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    _check_contraction(T, "T")
    w, V = np.linalg.eigh(T)
    defect = np.maximum(1.0 - w * w, 0.0)
    s = np.sqrt(defect)
    D = (V * s) @ V.conj().T
    smax = s.max() if len(s) else 0.0
    keep = s > RANK_TOL * max(smax, 1.0)
    return D, V[:, keep]


def bold_T(R: SubspaceRealization) -> SubspaceRealization:
    """Block contraction on M + ran(I-T^2)^{1/2} realizing gamma of R's m-function.

    Blocks: [[-P_M T|_M, P_M D_T], [D_T|_M, T]] re-expressed with the
    distinguished subspace leading.
    """
    T, B = R.T, R.M_basis
    D, Q = defect_operator(T)
    top_left = -B.conj().T @ T @ B
    top_right = B.conj().T @ D @ Q
    bottom_right = Q.conj().T @ T @ Q
    big = np.block([[top_left, top_right], [top_right.conj().T, bottom_right]])
    big = (big + big.conj().T) / 2.0
    return SubspaceRealization(T=big, M_basis=np.eye(big.shape[0], R.d, dtype=complex))


def compressed_resolvent(A: np.ndarray, M_basis: np.ndarray, lam) -> np.ndarray:
    """M_basis* (A - lam I)^{-1} M_basis, shape lam.shape + (d, d), with a residual-based pole guard."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    M_basis = _as_columns(M_basis)
    return M_basis.conj().T @ _resolvent_solve(A, M_basis, _as_complex(lam))


def compressed_resolvent_schur(D: np.ndarray, K: np.ndarray, T: np.ndarray, lam: complex) -> np.ndarray:
    """Compressed resolvent of [[D, K*], [K, T]] via the Schur-complement form
    -(-D + K*(T - lam)^{-1}K + lam)^{-1}; raises PoleError at a pole."""
    lam = complex(_as_complex(lam))
    D = np.atleast_2d(np.asarray(D, dtype=complex))
    K = _as_columns(K)
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    inner = K.conj().T @ _resolvent_solve(T, K, lam)
    try:
        return -_finite_inv(-D + inner + lam * np.eye(D.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"lambda={lam} is a pole of the compressed resolvent") from exc


def chain_A(K: np.ndarray, That: np.ndarray, n: int) -> ChainOperator:
    """Assemble the depth-n chain operator.

    A_1 = [[0, K*], [K, That]]; each further level prepends a corner copy of
    the subspace coupled by identity blocks, reproducing the free discrete
    Schroedinger pattern in the top-left n x n block corner.
    """
    if n < 1:
        raise ValueError("need chain index n >= 1")
    K = _as_columns(K)
    That = np.atleast_2d(np.asarray(That, dtype=complex))
    h, d = K.shape
    if That.shape[0] != h:
        raise ValueError("K and That dimensions are inconsistent")
    _check_contraction(K, "K")
    size = n * d + h
    if size > CHAIN_DIM_CAP:
        raise ValueError(f"chain dimension {size} exceeds cap {CHAIN_DIM_CAP}")
    A = np.zeros((size, size), dtype=complex)
    A[: n * d, : n * d] = np.kron(np.eye(n, k=1) + np.eye(n, k=-1), np.eye(d))
    A[(n - 1) * d : n * d, n * d :] = K.conj().T
    A[n * d :, (n - 1) * d : n * d] = K
    A[n * d :, n * d :] = That
    return ChainOperator(assembled=A, d=d)


def simplicity_check(R: SubspaceRealization):
    """Is R simple, i.e. do the vectors (T - lam)^{-1} M span the whole space?

    R is simple exactly when each spectral projection of T maps M onto its
    whole eigenspace.  So the rank sums, over T's eigenvalue clusters t, the
    rank of V_t* M: its singular values above RANK_TOL * ||M||.  Returns
    (is_simple, rank).
    """
    tol = RANK_TOL * np.linalg.norm(R.M_basis, 2)
    rank = sum(int(np.sum(np.linalg.svd(VM, compute_uv=False) > tol)) for _, VM in _eigen_blocks(R.T, R.M_basis))
    return rank == R.T.shape[0], rank
