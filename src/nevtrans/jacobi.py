"""Block Jacobi truncations and their m-functions.

The m-function is the top-left d x d block of (J - lam I)^{-1}, computed two
independent ways: by cyclic reduction of the tridiagonal system, and as the
continued fraction (J-fraction).  The two must agree; tests exploit this as a
dual-route check.  A scalar chain (d = 1) runs both on numbers: the J-fraction
as its O(N) backward recursion, the reduction in ceil(log2 N) levels of
elementwise operations on flat arrays.  A Kronecker matrix J = j (x) I_d,
every block a scalar times I_d, is evaluated through its scalar chain j.
Other block chains run block cyclic reduction and a pairwise composition of
the J-fraction maps as Redheffer star products, each in ceil(log2 N) levels
of batched d x d solves.  Each BlockJacobi builds the lambda-independent
stacks of its routes once, at their first call.  The two public routes own
the pole policy; their four private cores only compute, the reductions
returning their residual with the value.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutError, PoleError
from .herglotz import (
    POLE_RESIDUAL_TOL, _as_complex, _eye, _hermitian, _matrix_from_json, _matrix_to_json, _prescale,
    _times_eye, _times_identity,
)


#: largest 1-norm condition number of an off-diagonal block; above it the block counts as singular
OFFDIAG_COND_MAX = 1e12


@dataclass(frozen=True, eq=False)
class BlockJacobi:
    """Finite N-block truncation of a (block) Jacobi matrix.

    ``a`` is the (N, d, d) stack of Hermitian diagonal blocks, ``b`` the
    (N-1, d, d) stack of superdiagonal blocks; the subdiagonal carries
    ``b_k*`` so the assembled matrix is Hermitian.  ``==`` is identity: a
    field-wise comparison of arrays has no single truth value.  The two arrays
    are made read-only, because the routes keep the Kronecker test of
    ``_scalar_chain`` and the lambda-independent stacks built from a and b
    for the life of J: ``_diag``, ``_couplings`` and ``_weights`` of a scalar
    chain, and ``_b_adj``, ``_cr_rows``, ``_cf_rhs``, ``_cf_b_adj`` and
    ``_residual_rows`` of a block chain, each read-only too.
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
        a.flags.writeable = b.flags.writeable = False

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

    @functools.cached_property
    def _scalar_chain(self) -> "BlockJacobi | None":
        """The d = 1 chain j of the (0, 0) entries when every block is exactly that
        entry times I_d with d > 1, else None.  Such a J is j (x) I_d up to a
        permutation of the basis, so its m-function is m_j I_d."""
        if self.d == 1:
            return None
        a, b, eye = self.a[:, :1, :1], self.b[:, :1, :1], np.eye(self.d)
        if not (np.array_equal(self.a, a * eye) and np.array_equal(self.b, b * eye)):
            return None
        return BlockJacobi(a=a.copy(), b=b.copy())

    @functools.cached_property
    def _diag(self) -> np.ndarray:
        """A scalar chain's (N,) diagonal a_k."""
        return self.a[:, 0, 0]

    @functools.cached_property
    def _couplings(self) -> np.ndarray:
        """A scalar chain's (2, N-1) couplings [-b_k^*; -b_k] in the rows of J - lam: of
        row k + 1 to row k, and of row k to row k + 1, negated for the cyclic reduction."""
        b = self.b[:, 0, 0]
        return _read_only(-np.stack([b.conj(), b]))

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        """A scalar chain's (N-1,) J-fraction weights |b_k|^2: real, held as complex
        numbers, because numpy divides two complex scalars faster than a real by a complex."""
        b = self.b[:, 0, 0]
        return _read_only((b.real * b.real + b.imag * b.imag).astype(complex))

    @functools.cached_property
    def _b_adj(self) -> np.ndarray:
        """The (N-1, d, d) subdiagonal blocks b_k*."""
        return _read_only(np.swapaxes(self.b.conj(), -1, -2))

    @functools.cached_property
    def _cr_rows(self) -> np.ndarray:
        """m_resolvent's first level, [L_k | U_k] = [b_{k-1}* | b_k] with
        b_{-1} = b_{N-1} = 0: (N, d, 2d)."""
        zero = np.zeros((1, self.d, self.d), dtype=complex)
        return _read_only(np.concatenate(
            [np.concatenate([zero, self._b_adj]), np.concatenate([self.b, zero])], axis=-1))

    @functools.cached_property
    def _cf_rhs(self) -> np.ndarray:
        """The J-fraction leaves' right-hand sides [I | b_k], with b_{N-1} = 0: (N, d, 2d)."""
        b = np.concatenate([self.b, np.zeros((1, self.d, self.d))])
        return _read_only(np.concatenate([np.broadcast_to(_eye(self.d), b.shape), b], axis=-1))

    @functools.cached_property
    def _cf_b_adj(self) -> np.ndarray:
        """The leaves' b_k*, b_{N-1}* = 0 included: (N, d, d)."""
        return _read_only(np.swapaxes(self._cf_rhs[..., self.d:].conj(), -1, -2))

    @functools.cached_property
    def _residual_rows(self) -> np.ndarray:
        """[a_k; b_k*; b_{k-1}] with b_{-1} = b_{N-1} = 0, the blocks that carry X_k into
        rows k, k + 1 and k - 1 of m_resolvent's residual: (N, 3d, d)."""
        zero = np.zeros((1, self.d, self.d), dtype=complex)
        return _read_only(np.concatenate(
            [self.a, np.concatenate([self._b_adj, zero]), np.concatenate([zero, self.b])], axis=-2))

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


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


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


def _chain_reduction(j: BlockJacobi, lam):
    """m_j(lam) of a d = 1 chain j by cyclic reduction on flat arrays, of lam.shape,
    and the largest modulus of its O(N) residual; a zero pivot raises FloatingPointError.

    Row k of (j - lam) x = e_0 reads -l_k x_{k-1} + D_k x_k - u_k x_{k+1} = delta_k0,
    with the couplings l_k = -b_{k-1}^* and u_k = -b_k of ``_couplings``.  Each
    level solves the odd rows for x_o = alpha_o x_{o-1} + beta_o x_{o+1} and
    leaves the even rows in the same form, half as many; the right-hand side
    stays e_0 throughout.  Every operation is elementwise on lam.shape + (n,)
    arrays, a scalar lam included, so an array lam gives the stacked calls' bits.
    An array of one point runs as a scalar: numpy can round a product of an (n,)
    coupling with a (1, ..., 1, n) array unlike the same product of two (n,) ones.
    """
    lam = np.asarray(lam)
    if lam.ndim and lam.size == 1:
        m, res = _chain_reduction(j, lam.reshape(()))
        return m.reshape(lam.shape), res
    lo, up = j._couplings
    shifted = j._diag - lam[..., None]  # D_k = a_k - lam
    D, levels = shifted, []
    with np.errstate(divide="raise", over="ignore", invalid="ignore"):
        while D.shape[-1] > 1:
            n_odd, m = D.shape[-1] // 2, (D.shape[-1] - 1) // 2  # m: even rows after the first
            r = 1 / D[..., 1::2]  # a zero pivot raises: divide is flagged only by a zero divisor
            alpha, beta = lo[..., ::2] * r, up[..., 1::2] * r[..., :m]
            levels.append((alpha, beta))
            lo, up = lo[..., 1::2], up[..., ::2]  # the even rows' couplings to the odd rows
            D = D[..., ::2].copy()
            D[..., 1:] -= lo * beta
            D[..., :n_odd] -= up * alpha
            lo, up = lo * alpha[..., :m], up[..., :m] * beta
        x = 1 / D
    for alpha, beta in reversed(levels):
        # each odd row takes the even rows around it; the last one may have none after it
        odd = alpha * x[..., :alpha.shape[-1]]
        odd[..., :beta.shape[-1]] += beta * x[..., 1:]
        x, even = np.empty(odd.shape[:-1] + (x.shape[-1] + odd.shape[-1],), dtype=complex), x
        x[..., ::2], x[..., 1::2] = even, odd
    lo, up = j._couplings
    res = shifted * x
    res[..., 1:] -= lo * x[..., :-1]
    res[..., :-1] -= up * x[..., 1:]
    res[..., 0] -= 1.0
    return x[..., 0], np.abs(res).max()


def _chain_fraction(j: BlockJacobi, lam):
    """m_j(lam) of a d = 1 chain j by the J-fraction's backward recursion, of
    lam.shape; a zero denominator raises FloatingPointError.

    It runs on the denominators y_k = 1/m_k: y_{N-1} = a_{N-1} - lam,
    y_k = a_k - lam - |b_k|^2 / y_{k+1}, and m = 1/y_0, a subtraction and a
    division per step.  A scalar lam runs on numpy complex scalars, an array
    lam on arrays, through the same operations; numpy's scalar and array
    divisions round alike, so an array lam gives the stacked calls' bits.
    """
    # a_k - lam, the chain's axis first
    shifted = j._diag - lam if isinstance(lam, complex) else j._diag.reshape((j.N,) + (1,) * lam.ndim) - lam
    with np.errstate(divide="raise", over="ignore", invalid="ignore"):  # divide: only a zero denominator
        y = shifted[-1]
        for c, w in zip(shifted[-2::-1], j._weights[::-1]):
            y = c - w / y
        return 1 / y


def _block_reduction(J: BlockJacobi, lam):
    """m_J(lam) of a block chain by block cyclic reduction, of lam.shape + (d, d), and
    the largest Frobenius norm of its O(N) block residual; a singular pivot raises LinAlgError.

    Row k of (J - lam) X = E0 reads L_k X_{k-1} + D_k X_k + U_k X_{k+1} = E0_k.
    Each level solves the odd rows in one batched solve, eliminates them and
    leaves a block-tridiagonal system in the even rows, half as long, whose
    right-hand side is still E0; back-substitution then recovers every X_k
    for the residual.  One product per shared right operand, the left
    operands stacked along rows, serves the substitution and the residual:
    every entry is still the same d-term sum.
    """
    d, lead = J.d, np.shape(lam)
    # C_k = [L_k | U_k]; lam's axes as ones, since numpy < 2 reads a solve
    # right-hand side with one axis fewer than the matrices as a stack of vectors
    C = J._cr_rows.reshape((1,) * len(lead) + J._cr_rows.shape)
    rows = np.broadcast_to(J._residual_rows, lead + J._residual_rows.shape).copy()  # [a_k - lam; b_k*; b_{k-1}]
    rows[..., :d, :] -= _times_eye(lam, d)[..., None, :, :]
    D = rows[..., :d, :]  # the first pivots, a_k - lam
    levels = []
    while D.shape[-3] > 1:
        # odd rows: X_o = -alpha_o X_{o-1} - beta_o X_{o+1}, [alpha | beta] = D_o^{-1} C_o
        ab = np.linalg.solve(D[..., 1::2, :, :], C[..., 1::2, :, :])
        levels.append(ab)
        # substitute them into the even rows; the odd row before row 0, and
        # after a last even row, is zero (L_0 = 0 and U_{n-1} = 0 anyway)
        pad = np.zeros(ab.shape[:-3] + (1, d, 2 * d), dtype=complex)
        odd = np.concatenate([pad, ab] + [pad] * (D.shape[-3] % 2), axis=-3)
        C = C[..., ::2, :, :]
        # one product per odd slot j, [U_{j-1}; L_j] @ odd_j, for the even rows
        # on either side of it (zero blocks past the ends)
        W = np.zeros(odd.shape[:-2] + (2 * d, d), dtype=complex)
        W[..., 1:, :d, :], W[..., :-1, d:, :] = C[..., d:], C[..., :d]
        Q = W @ odd
        left, right = Q[..., :-1, d:, :], Q[..., 1:, :d, :]
        D = D[..., ::2, :, :] - left[..., d:] - right[..., :d]
        C = np.concatenate([-left[..., :d], -right[..., d:]], axis=-1)
    X = np.linalg.solve(D, _eye(d).reshape((1,) * (D.ndim - 2) + (d, d)))
    for ab in reversed(levels):
        # the even rows are known: each odd row takes the even rows around it (zero past the end)
        n_odd = ab.shape[-3]
        ends = np.concatenate([X, np.zeros(X.shape[:-3] + (1, d, d), dtype=complex)], axis=-3)[..., :n_odd + 1, :, :]
        X_odd = -(ab @ np.concatenate([ends[..., :-1, :, :], ends[..., 1:, :, :]], -2))
        X, X_even = np.empty(X.shape[:-3] + (X.shape[-3] + n_odd, d, d), dtype=complex), X
        X[..., ::2, :, :], X[..., 1::2, :, :] = X_even, X_odd
    # the residual in O(N): a dense one would build the N d x N d matrix; X_k's terms
    # in rows k, k + 1 and k - 1 come from one product
    P = rows @ X
    r = P[..., :d, :]
    r[..., 1:, :, :] += P[..., :-1, d:2 * d, :]
    r[..., :-1, :, :] += P[..., 1:, 2 * d:, :]
    r[..., 0, :, :] -= _eye(d)
    return X[..., 0, :, :].copy(), np.max(np.linalg.norm(r, axis=(-2, -1)))  # a view would keep all of X alive


def _star_tree(J: BlockJacobi, lam):
    """m_J(lam) of a block chain by composing its J-fraction maps pairwise as
    Redheffer star products, of lam.shape + (d, d); a singular solve raises LinAlgError.

    The map w -> (a_k - lam - b_k w b_k^*)^{-1} is held in star form,
    w -> S11 + S12 w (I - S22 w)^{-1} S21, with S11 = c^{-1}, S12 = c^{-1} b_k,
    S21 = b_k^* c^{-1}, S22 = b_k^* c^{-1} b_k and c = a_k - lam.  b_{N-1} = 0
    makes the last map the constant c^{-1}, so m is S11 of the whole
    composition, made in ceil(log2 N) levels of batched solves.  A merge makes
    one product per shared right operand, the left operands stacked along rows.
    """
    d, lead = J.d, np.shape(lam)
    # [S11 | S12] = c^{-1} [I | b] and [S21 | S22] = b^* [S11 | S12]; the
    # right-hand side carries lam's axes as ones, as in _block_reduction
    rhs = J._cf_rhs.reshape((1,) * len(lead) + J._cf_rhs.shape)
    S = np.linalg.solve(J.a - _times_eye(lam, d)[..., None, :, :], rhs)
    S = np.concatenate([S, J._cf_b_adj @ S], axis=-2)
    while S.shape[-3] > 1:
        n_pairs = S.shape[-3] // 2
        outer, inner = S[..., 0:2 * n_pairs:2, :, :], S[..., 1:2 * n_pairs:2, :, :]
        # S * T from one factorisation of I - S22 T11, V = (I - S22 T11)^{-1} [S21 | S22 T12]:
        # [H11 | H12] = [S11 | S12 T12] + S12 T11 V,  [H21 | H22] = [0 | T22] + T21 V.
        # A solve, not inv(I - S22 T11) @ [...]: on random d = 3 chains near
        # the real axis the inverse lost up to 400 times more accuracy.
        # products that share a right operand are one product of row-stacked left operands
        st = outer[..., d:] @ inner[..., :d, :]  # [S12 T11 | S12 T12; S22 T11 | S22 T12]
        s12_t, s22_t = st[..., :d, :], st[..., d:, :]
        V = np.linalg.solve(_eye(d) - s22_t[..., :d], np.concatenate([outer[..., d:, :d], s22_t[..., d:]], axis=-1))
        H = np.concatenate([s12_t[..., :d], inner[..., d:, :d]], axis=-2) @ V  # [S12 T11 V; T21 V]
        H[..., :d, :d] += outer[..., :d, :d]
        H[..., :d, d:] += s12_t[..., d:]
        H[..., d:, d:] += inner[..., d:, d:]
        # an odd one out, the last map, goes up a level unchanged
        S = np.concatenate([H, S[..., 2 * n_pairs:, :, :]], axis=-3)
    return S[..., 0, :d, :d].copy()  # not a view that keeps S alive


def _routed(J: BlockJacobi, lam):
    """The matrix a route's core runs on, the lam it takes there, and the factor on its value.

    The matrix is J's scalar chain j for d = 1 and for a Kronecker J, else J.
    When lam passes herglotz._prescale's bound, where numpy's division and
    LAPACK overflow inside, it is a quarter of that matrix at lam / 4, whose
    m-function is four times J's at lam; an array lam is scaled whole.  Powers
    of two scale every rounding exactly, but in the subnormal range, and
    leave the residual as it is.
    """
    K = J if J.d == 1 else J._scalar_chain or J
    return (K, lam, None) if _prescale(lam) is None else (BlockJacobi(a=K.a / 4, b=K.b / 4), lam / 4, 0.25)


def m_resolvent(J: BlockJacobi, lam) -> np.ndarray:
    """Top-left block of (J - lam I)^{-1} by cyclic reduction, ceil(log2 N) levels.

    A scalar chain (d = 1), and a Kronecker J = j (x) I_d through its chain j,
    runs ``_chain_reduction`` on flat arrays of numbers; other block chains run
    ``_block_reduction``, one batched d x d solve per level.  No pivot can blow
    up: each is a diagonal block of a Schur complement of J - lam, hence a
    Schur complement of J - lam itself.  Its imaginary part (D - D^*)/2i is
    -Im lam I minus a positive semidefinite term for Im lam > 0 (plus one for
    Im lam < 0), so ||D^{-1}|| <= 1/|Im lam|.

    lam may have any shape; the result has shape lam.shape + (d, d).  The
    levels hold O(points * N * d^2) numbers.  A real lam at which a pivot is
    exactly singular (a_k - lam for an odd k, on the first level) raises
    PoleError even off the spectrum.  The residual guard (POLE_RESIDUAL_TOL,
    times sqrt(d) for a block chain) is what certifies the value: it also
    raises at a pole that no pivot shows as singular.
    """
    lam = _as_complex(lam)
    K, at, scale = _routed(J, lam)
    try:
        m, res = _chain_reduction(K, at) if K.d == 1 else _block_reduction(K, at)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise PoleError(f"singular shift at lambda={lam}") from exc
    if not res <= POLE_RESIDUAL_TOL * math.sqrt(K.d):  # a NaN residual fails too
        raise PoleError(f"solve residual {res:.3e}: lambda={lam} is near the truncation spectrum")
    m = m if scale is None else m * scale
    return _times_identity(m, J.d) if K.d == 1 else m


def m_cf(J: BlockJacobi, lam) -> np.ndarray:
    """Finite J-fraction m = f_0(f_1(... f_{N-1}(0))), f_k(w) = (a_k - lam - b_k w b_k^*)^{-1}.

    That is m_N = (a_{N-1} - lam)^{-1}, m_k = (a_k - lam - b_k m_{k+1} b_k^*)^{-1}.
    A scalar chain (d = 1), and a Kronecker J = j (x) I_d through its chain j,
    runs this backward recursion itself in ``_chain_fraction``, O(N) steps on
    numbers.  Other block chains compose the maps pairwise in ``_star_tree``,
    in ceil(log2 N) levels.  The blocks of a composition are corner blocks of
    the resolvent of its stretch of the chain (times b), so they stay
    bounded, where a product of 2d x 2d transfer matrices loses rank.  Equals
    m_resolvent exactly in exact arithmetic.

    lam may have any shape; the result has shape lam.shape + (d, d).  The
    tree holds O(points * N * d^2) numbers, a stack of N (2d, 2d) blocks per
    point and its temporaries; the recursion O(points * N).  A real lam at
    which a denominator is exactly singular (a scalar chain's
    a_k - lam - |b_k|^2 m_{k+1}, or a block chain's a_k - lam) raises
    PoleError even where the fraction itself is finite, and so does a value
    that is not finite.  There is no residual guard: at a pole that rounding
    leaves merely near-singular it returns a huge finite value where
    m_resolvent raises.
    """
    lam = _as_complex(lam)
    K, at, scale = _routed(J, lam)
    try:
        m = _chain_fraction(K, at) if K.d == 1 else _star_tree(K, at)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise PoleError(f"singular shift in the J-fraction at lambda={lam}") from exc
    # a scalar chain at a scalar lam gives a numpy scalar, a complex: cmath tests it in a fiftieth of the time
    if not (cmath.isfinite(m) if isinstance(m, complex) else np.isfinite(m).all()):
        raise PoleError(f"the J-fraction is not finite at lambda={lam}")
    m = m if scale is None else m * scale
    return _times_identity(m, J.d) if K.d == 1 else m


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
