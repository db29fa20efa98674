"""Finite-data matrix-valued Nevanlinna functions.

A function is stored either as a discrete measure (A, B and stacks of atom
positions and weights) or as a realization pair (T, K) with selfadjoint T, giving
the compressed resolvent K* (T - lam)^{-1} K.  Values are d x d complex matrices.
"""

from __future__ import annotations

import cmath
import functools
import json
import sys
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import NotContractionError, PoleError, UnboundedLimitError

#: tolerance on ||K|| <= 1 for realization variants
CONTRACTION_TOL = 1e-12

#: relative floor below which a Gram matrix still counts as PSD
PSD_TOL = 1e-10

#: residual threshold (relative to the rhs) above which a solve counts as a pole
POLE_RESIDUAL_TOL = 1e-8

_POLE_TOL = 1e-12

#: numpy's 1 / x raises no floating-point flag but underflow (which its default errstate ignores)
#: when |Re x| + |Im x| lies between _RECIP_SAFE and 1 / _RECIP_SAFE: for x = a + ib, |a| >= |b|
#: (or the mirror image), it scales by 1 / (a + b r), r = b / a, whose modulus lies within [|a|, 2|a|]
_RECIP_SAFE = 1e-300

_FLOAT_MAX = sys.float_info.max


def _hermitian(M: np.ndarray, tol: float = 1e-10) -> bool:
    """Each matrix of the stack M (..., n, n) is Hermitian to tol; non-finite entries fail."""
    M = np.asarray(M)
    dev = np.abs(M - np.swapaxes(M.conj(), -1, -2)).max(axis=(-2, -1))
    return bool(np.all(dev <= tol * (1.0 + np.abs(M).max(axis=(-2, -1)))))


def _check_contraction(M: np.ndarray, name: str) -> None:
    norm = np.linalg.norm(M, 2)
    if not norm <= 1.0 + CONTRACTION_TOL:
        raise NotContractionError(f"||{name}|| = {norm} exceeds 1 beyond tolerance")


def _as_columns(K) -> np.ndarray:
    K = np.asarray(K, dtype=complex)
    return K[:, None] if K.ndim == 1 else K


@functools.lru_cache(maxsize=None)
def _eye(d: int) -> np.ndarray:
    eye = np.eye(d, dtype=complex)  # complex, so that no solve casts it
    eye.flags.writeable = False  # shared by every call
    return eye


def _times_eye(x, d: int) -> np.ndarray:
    """x I_d, of shape x.shape + (d, d).  A Python scalar x takes one product with
    I_d, not np.multiply.outer of a 0-d array; products by 1 and 0 are exact either way."""
    return x * _eye(d) if isinstance(x, complex) else np.multiply.outer(x, _eye(d))


def _times_identity(m, d: int) -> np.ndarray:
    """m I_d for values m of lam.shape, as a new lam.shape + (d, d) array: exactly m on
    the diagonal and +0.0 off it."""
    m = np.asarray(m)
    out = np.zeros(m.shape + (d, d), dtype=complex)
    out.reshape(m.shape + (d * d,))[..., ::d + 1] = m[..., None]
    return out


def _prescale(x):
    """None when |Re x| + |Im x| is at most the largest float for every x; else the
    powers of two, 0.25 where it exceeds it and 1.0 elsewhere, of x's shape.

    Past that bound numpy's complex division overflows inside (1 / (1e308 + 1e308i)
    flushes to zero) and its product with a broadcast x flags a spurious overflow.
    A quarter of any finite x is clear of both, and scaling by a power of two is
    exact but in the subnormal range.  A Python complex x is tested in Python
    arithmetic, which rounds as numpy's does.
    """
    if isinstance(x, complex):
        return 0.25 if abs(x.real) > _FLOAT_MAX - abs(x.imag) else None
    near = np.abs(x.real) > _FLOAT_MAX - np.abs(x.imag)
    return np.where(near, 0.25, 1.0) if near.any() else None


def _finite_inv(M: np.ndarray) -> np.ndarray:
    """M^{-1} for a stack of d x d matrices; raises LinAlgError when M is singular or
    the inverse is not finite.

    For d > 1 it solves against I, which gives the bits of np.linalg.inv.  A
    1 x 1 M is inverted by one division, never by LAPACK, and an exactly zero
    one raises as LAPACK does.  An M past _prescale's bound is divided out as
    a quarter of itself, so that 1 / (1e308 + 1e308i) is 5e-309 - 5e-309i, not zero.
    """
    if M.shape[-1] > 1:
        # I with M's ndim: numpy < 2 reads a right-hand side with one axis fewer as a stack of vectors
        inv = np.linalg.solve(M, _eye(M.shape[-1]).reshape((1,) * (M.ndim - 2) + M.shape[-2:]))
    elif not M.all():
        raise np.linalg.LinAlgError("Singular matrix")
    else:
        with np.errstate(all="ignore", over="raise"):
            try:
                inv = 1 / M
            except FloatingPointError:  # a huge M, or a tiny one whose reciprocal overflows
                with np.errstate(over="ignore"):
                    s = _prescale(M)
                    inv = 1 / M if s is None else 1 / (M * s) * s
    if not np.isfinite(inv).all():
        raise np.linalg.LinAlgError("numerically singular matrix: the inverse is not finite")
    return inv


def _finite_recip(x: np.complex128) -> np.complex128:
    """_finite_inv of the 1 x 1 matrix [[x]], for one numpy scalar x, as a numpy scalar.

    numpy's scalar division rounds as its array division does, so these are
    the array path's bits.  Within _RECIP_SAFE's bounds 1 / x runs without the
    errstate, which costs more than the division; any other x, a zero, a
    non-finite or an extreme one, takes _finite_inv itself.
    """
    z = complex(x)  # Python floats: the sum below overflows to inf without a flag
    if _RECIP_SAFE < abs(z.real) + abs(z.imag) < 1.0 / _RECIP_SAFE:
        return 1.0 / x
    return _finite_inv(np.full((1, 1), x))[0, 0]


def _as_complex(x):
    """x as a Python complex when it is a scalar, else as a complex array.

    Every value routine passes its lambda through here: a scalar keeps Python's
    complex arithmetic (and its rounding), an array of any shape broadcasts, and
    a non-finite part anywhere raises ValueError.
    """
    if isinstance(x, (complex, float, int)):  # Python and numpy float64/complex128 scalars, without a 0-d array
        x = complex(x)
    else:
        x = np.asarray(x, dtype=complex)
        x = complex(x) if x.ndim == 0 else x
    if not (cmath.isfinite(x) if isinstance(x, complex) else np.isfinite(x).all()):
        raise ValueError(f"lambda must be finite, got {x}")
    return x


def _resolvent_solve(A: np.ndarray, K: np.ndarray, lam) -> np.ndarray:
    """(A - lam I)^{-1} K for one K or a stack over lam's axes; PoleError when the
    residual shows some lam is numerically an eigenvalue of A."""
    shifted = A - np.multiply.outer(lam, np.eye(A.shape[0]))
    try:
        X = np.linalg.solve(shifted, K.reshape((1,) * (shifted.ndim - K.ndim) + K.shape))  # matrices, also to numpy < 2
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"lambda={lam} is an eigenvalue of the operator") from exc
    res = np.linalg.norm(shifted @ X - K, axis=(-2, -1))
    if np.any(res > POLE_RESIDUAL_TOL * np.maximum(np.linalg.norm(K, axis=(-2, -1)), 1e-300)):
        raise PoleError(f"lambda={lam} is numerically an eigenvalue of the operator")
    return X


def _atom_gaps(t: np.ndarray, lam) -> np.ndarray:
    """t_j - lam, shape lam.shape + (m,) for the m atom positions t; raises
    PoleError when some lam lies within _POLE_TOL of an atom."""
    gaps = t - np.asarray(lam)[..., None]
    near = np.abs(gaps) < _POLE_TOL
    if near.any():
        raise PoleError(f"lambda={lam} coincides with atom t={t[near.nonzero()[-1][0]]}")
    return gaps


def _add_in_atom_order(first, terms: np.ndarray) -> np.ndarray:
    """first + terms[..., 0, :, :] + terms[..., 1, :, :] + ..., added in atom order
    (numpy's sum may pair terms up, which rounds differently); first broadcasts."""
    *lead, m, d, _ = terms.shape
    stack = np.empty((*lead, m + 1, d, d), dtype=complex)
    stack[..., 0, :, :], stack[..., 1:, :, :] = first, terms
    return stack.cumsum(axis=-3)[..., -1, :, :]


def _eigen_blocks(T: np.ndarray, K: np.ndarray) -> list:
    """(t, V_t* K) for each eigenvalue cluster of the Hermitian T, in ascending order.

    The columns of V_t are the cluster's eigenvectors.  An eigenvalue within
    1e-12 of a cluster's first eigenvalue joins that cluster, and t is the
    mean of the cluster's eigenvalues.
    """
    w, V = np.linalg.eigh(T)
    VK = V.conj().T @ K
    blocks = []
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and w[j] - w[i] < 1e-12:
            j += 1
        blocks.append((np.mean(w[i:j]), VK[i:j]))
        i = j
    return blocks


def _matrix_to_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(M)]


def _matrix_from_json(rows: list) -> np.ndarray:
    M = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


@dataclass(frozen=True, eq=False)
class RealizedFunction:
    """A matrix-valued Nevanlinna function given by finite data.

    Exactly one of the two variants is populated, and ``variant`` and ``dim``
    are read off the arrays:

    * ``measure``: value A + B*lam + sum_j W_j ((t_j-lam)^{-1} - t_j/(t_j^2+1)),
      with d x d A and B, t the (m,) float stack ``atom_t`` and W the
      (m, d, d) stack ``atom_W``
    * ``realization``: value K* (T - lam I)^{-1} K with n x n T = T*, n x d K
      and ||K|| <= 1

    ``==`` is identity: a comparison of array fields has no single truth value.
    """

    A: np.ndarray | None = None
    B: np.ndarray | None = None
    atom_t: np.ndarray | None = None
    atom_W: np.ndarray | None = None
    T: np.ndarray | None = None
    K: np.ndarray | None = None
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        given = [x is not None for x in (self.A, self.B, self.atom_t, self.atom_W, self.T, self.K)]
        if given not in ([True] * 4 + [False] * 2, [False] * 4 + [True] * 2):
            raise ValueError("populate exactly one of (A, B, atom_t, atom_W) and (T, K)")
        if self.variant == "measure":
            if not np.all(np.isfinite(self.atom_t)):
                raise ValueError("atom positions must be finite")
            if self.A.shape != (self.dim,) * 2 or self.B.shape != self.A.shape:
                raise ValueError("A and B must be d x d matrices of the same d")
            if self.atom_W.shape != self.atom_t.shape + self.A.shape:
                raise ValueError("need one d x d weight per atom position")
        elif self.K.ndim != 2 or self.T.shape != (len(self.K),) * 2:
            raise ValueError("T must be square with one row of K per row")
        if not validate:
            return
        if self.variant == "measure":
            if not _hermitian(self.A):
                raise ValueError("A must be Hermitian")
            if not is_psd_gram(self.B):
                raise ValueError("B must be PSD")
            # a set, not np.unique: numpy's sort code costs memory the first time it loads
            if len(set(self.atom_t.tolist())) != len(self.atom_t):
                raise ValueError("atom positions must be distinct")
            if not is_psd_gram(self.atom_W):
                raise ValueError("atom weights must be PSD")
        else:
            if not _hermitian(self.T):
                raise ValueError("T must be Hermitian")
            _check_contraction(self.K, "K")

    @property
    def variant(self) -> str:
        return "measure" if self.A is not None else "realization"

    @property
    def dim(self) -> int:
        return self.A.shape[0] if self.A is not None else self.K.shape[1]

    @classmethod
    def from_measure(cls, A, B, atoms, *, validate: bool = True) -> "RealizedFunction":
        """From A, B and (t, W) atom pairs; a scalar W stands for a 1 x 1 weight."""
        A = np.atleast_2d(np.asarray(A, dtype=complex))
        B = np.atleast_2d(np.asarray(B, dtype=complex))
        atoms = list(atoms)
        atom_t = np.array([t for t, _ in atoms], dtype=float)
        atom_W = np.array([np.atleast_2d(W) for _, W in atoms], dtype=complex)
        atom_W = atom_W if atoms else np.zeros((0,) + A.shape, complex)
        return cls(A=A, B=B, atom_t=atom_t, atom_W=atom_W, validate=validate)

    @classmethod
    def from_realization(cls, T, K, *, validate: bool = True) -> "RealizedFunction":
        T = np.atleast_2d(np.asarray(T, dtype=complex))
        K = _as_columns(K)
        return cls(T=T, K=K, validate=validate)

    @classmethod
    def zero(cls, dim: int = 1) -> "RealizedFunction":
        """The identically-zero function (empty measure)."""
        z = np.zeros((dim, dim), dtype=complex)
        return cls.from_measure(z, z, ())

    # -- evaluation ------------------------------------------------------

    def derivative(self, lam) -> np.ndarray:
        """M'(lam), shape lam.shape + (d, d), exact for the finite representations;
        raises PoleError when any lam is a pole."""
        lam = _as_complex(lam)
        if self.variant == "measure":
            g = _atom_gaps(self.atom_t, lam)
            # (t - lam)^2 rounded like a Python complex product, which numpy's may not be
            sq = g.real * g.real - g.imag * g.imag + 2j * (g.real * g.imag)
            return _add_in_atom_order(self.B, self.atom_W / sq[..., None, None])
        X = _resolvent_solve(self.T, self.K, lam)
        return self.K.conj().T @ _resolvent_solve(self.T, X, lam)

    def measure_form(self) -> "RealizedFunction":
        """Equivalent measure variant: diagonalize T, atoms (t_j, K* P_j K)."""
        if self.variant == "measure":
            return self
        atoms = [(t, VK.conj().T @ VK) for t, VK in _eigen_blocks(self.T, self.K)]
        t, W = (np.array(x) for x in zip(*atoms))
        # measure form carries the atom-shifted affine part of the standard
        # integral representation so that values agree exactly
        A = _add_in_atom_order(np.zeros((self.dim, self.dim)), W * (t / (t * t + 1.0))[:, None, None])
        return RealizedFunction(A=A, B=np.zeros_like(A), atom_t=t, atom_W=W)

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> str:
        doc = {"variant": self.variant, "dim": self.dim}
        if self.variant == "measure":
            doc.update(
                A=_matrix_to_json(self.A),
                B=_matrix_to_json(self.B),
                atoms=[{"t": t, "W": _matrix_to_json(W)} for t, W in zip(self.atom_t.tolist(), self.atom_W)],
            )
        else:
            doc.update(T=_matrix_to_json(self.T), K=_matrix_to_json(self.K))
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str, *, validate: bool = True) -> "RealizedFunction":
        doc = json.loads(text)
        if doc["variant"] == "measure":
            F = cls.from_measure(
                _matrix_from_json(doc["A"]),
                _matrix_from_json(doc["B"]),
                [(a["t"], _matrix_from_json(a["W"])) for a in doc["atoms"]],
                validate=validate,
            )
        elif doc["variant"] == "realization":
            F = cls.from_realization(
                _matrix_from_json(doc["T"]), _matrix_from_json(doc["K"]), validate=validate
            )
        else:
            raise ValueError(f"unknown variant {doc['variant']!r}")
        if F.dim != doc["dim"]:
            raise ValueError("declared dim does not match the matrices")
        return F


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Finite set of off-axis sample points, the (n,) complex array ``points``,
    with one test vector per point, the rows of the (n, d) complex array ``vectors``."""

    points: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        if not self.points.size:
            raise ValueError("sample set must be nonempty")
        if self.points.ndim != 1 or self.vectors.ndim != 2 or len(self.vectors) != len(self.points):
            raise ValueError("one vector per sample point is required")
        if not (np.all(np.isfinite(self.points)) and np.all(self.points.imag != 0.0)):
            raise ValueError("sample points must be finite and off the real axis")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("sample vectors must be finite")

    @classmethod
    def of(cls, points, vectors) -> "SampleSet":
        """From sequences of points and of equal-length vectors; ragged vectors raise ValueError."""
        return cls(np.array(points, dtype=complex), np.array(vectors, dtype=complex))


def evaluate(F: RealizedFunction, lam) -> np.ndarray:
    """Value of F at lam, shape lam.shape + (d, d); raises PoleError when any
    lam is an atom / eigenvalue of T.  A realization solves one n x n system per lam."""
    lam = _as_complex(lam)
    if F.variant == "measure":
        # lam as a (1, 1) array even when scalar: numpy's loop for a scalar operand, with the
        # same bits otherwise, flags a spurious overflow on a 1 x 1 B = 0 at |lam| near 1e308;
        # past _prescale's bound a d x d B takes a quarter of lam, and the product four times
        s = _prescale(lam)
        if s is None:
            affine = F.A + F.B * np.asarray(lam)[..., None, None]
        else:
            s = np.asarray(s)[..., None, None]
            affine = F.A + F.B * (np.asarray(lam)[..., None, None] * s) / s
        t = F.atom_t
        if not len(t):  # what _add_in_atom_order returns over no atoms
            return affine
        weights = 1.0 / _atom_gaps(t, lam) - t / (t * t + 1.0)
        return _add_in_atom_order(affine, F.atom_W * weights[..., None, None])
    return F.K.conj().T @ _resolvent_solve(F.T, F.K, lam)


def asymptotic_C(F: RealizedFunction) -> np.ndarray:
    """C = -lim iy M(iy): K*K for realizations, total atom mass for measures."""
    if F.variant == "realization":
        return F.K.conj().T @ F.K
    if np.max(np.abs(F.B)) > 0:
        raise UnboundedLimitError("linear term B != 0: iy M(iy) is unbounded")
    return _add_in_atom_order(np.zeros((F.dim, F.dim)), F.atom_W)


def _nev_kernel(F: RealizedFunction, lam: complex, mu: complex) -> np.ndarray:
    denom = lam - np.conj(mu)
    if abs(denom) < 1e-12:
        return F.derivative(lam)
    return (evaluate(F, lam) - evaluate(F, mu).conj().T) / denom


def nevanlinna_gram(F: RealizedFunction, S: SampleSet) -> np.ndarray:
    """Gram matrix of the Nevanlinna kernel (M(lam)-M(mu)*)/(lam-conj(mu)).

    PSD (up to tolerance) for every genuine Nevanlinna function.  Coincident
    points lam = conj(mu) fall back to the derivative limit M'(lam).
    """
    pts, vecs = S.points.tolist(), S.vectors
    n = len(pts)
    G = np.empty((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            G[k, l] = vecs[k].conj() @ _nev_kernel(F, pts[k], pts[l]) @ vecs[l]
    return (G + G.conj().T) / 2.0


def class_n0_interval_gram(F: RealizedFunction, S: SampleSet) -> np.ndarray:
    """Gram matrix of the kernel characterizing m-functions of selfadjoint
    contractions (functions holomorphic off [-1,1] with iy M(iy) -> -I).

    L(lam, xi) = [(1-lam^2) M(lam) - (1-conj(xi)^2) M(xi)* - (lam-conj(xi)) I]
                 / (lam - conj(xi)).
    """
    lam, V = S.points, S.vectors
    xb = lam.conj()
    denom = lam[:, None] - xb  # [k, l]: lam_k - conj(xi_l), both running over the points
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("lam = conj(xi) collision: kernel has no defined diagonal limit")
    # A[k, l] = v_k* M(lam_k) v_l, so v_k* M(xi_l)* v_l = conj(A[l, k])
    A = np.einsum("ki,kij,lj->kl", V.conj(), evaluate(F, lam), V)
    G = ((1 - lam * lam)[:, None] * A - (1 - xb * xb) * A.conj().T - denom * (V.conj() @ V.T)) / denom
    return (G + G.conj().T) / 2.0


def is_psd_gram(G: np.ndarray) -> bool:
    """Scale-relative PSD check of the Hermitian part of each matrix of the stack
    G (..., n, n), which may be empty: its eigenvalues w satisfy min w >= -PSD_TOL * (1 + max |w|)."""
    w = np.linalg.eigvalsh((G + np.swapaxes(G.conj(), -1, -2)) / 2.0)
    return bool(np.all(w.min(axis=-1) >= -PSD_TOL * (1.0 + np.abs(w).max(axis=-1))))


def _random_hermitian(seed: int, d: int, n: int):
    """The generator seeded with seed and the n x n Hermitian T it draws first,
    scaled to ||T|| = 1; the random functions draw K from the same generator."""
    if d < 1 or n < d:
        raise ValueError("need d >= 1 and n >= d")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    T = (G + G.conj().T) / 2.0
    return rng, T / np.linalg.norm(T, 2)


def random_nevanlinna(seed: int, d: int, n: int) -> RealizedFunction:
    """Deterministic random realization variant with ||K|| <= 1 and T scaled
    to spectrum in [-1,1].

    T is scaled to ||T|| = 1, so n = 1 forces T = +-1, and a K drawn with
    |K| >= 1 is scaled to |K| = 1: random_nevanlinna(seed, 1, 1) is one of the
    two functions 1/(+-1 - lam) for about two thirds of seeds.
    """
    rng, T = _random_hermitian(seed, d, n)
    K = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    K = K / max(1.0, np.linalg.norm(K, 2))
    return RealizedFunction.from_realization(T, K)


def random_contraction_resolvent(seed: int, d: int, n: int) -> RealizedFunction:
    """Deterministic compressed resolvent P_M (T - lam)^{-1}|_M of a random
    Hermitian contraction, i.e. a member of the class realized by selfadjoint
    contractions (K is a random isometric embedding)."""
    rng, T = _random_hermitian(seed, d, n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    return RealizedFunction.from_realization(T, Q[:, :d])
