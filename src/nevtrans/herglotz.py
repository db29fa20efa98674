"""Finite-data matrix-valued Nevanlinna functions.

A function is stored either as a discrete-measure triple (A, B, atoms) or as
a realization pair (T, K) with selfadjoint T, giving the compressed resolvent
K* (T - lam)^{-1} K.  Values are d x d complex matrices.
"""

from __future__ import annotations

import cmath
import json
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


def _finite_inv(M: np.ndarray) -> np.ndarray:
    """M^{-1}; raises LinAlgError when M is singular or the inverse is not finite."""
    inv = np.linalg.inv(M)
    if not np.all(np.isfinite(inv)):
        raise np.linalg.LinAlgError("numerically singular matrix: the inverse is not finite")
    return inv


def _as_complex(x):
    """x as a Python complex when it is a scalar, else as a complex array.

    Every value routine passes its lambda through here: a scalar keeps Python's
    complex arithmetic (and its rounding), an array of any shape broadcasts, and
    a non-finite part anywhere raises ValueError.
    """
    x = np.asarray(x, dtype=complex)
    x = complex(x) if x.ndim == 0 else x
    if not (cmath.isfinite(x) if isinstance(x, complex) else np.isfinite(x).all()):
        raise ValueError(f"lambda must be finite, got {x}")
    return x


def _resolvent_solve(A: np.ndarray, K: np.ndarray, lam) -> np.ndarray:
    """(A - lam I)^{-1} K, shape lam.shape + K.shape; PoleError when the residual
    shows some lam is numerically an eigenvalue of A."""
    shifted = A - np.multiply.outer(lam, np.eye(A.shape[0]))
    try:
        X = np.linalg.solve(shifted, K.reshape((1,) * np.ndim(lam) + K.shape))  # matrices, also to numpy < 2
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"lambda={lam} is an eigenvalue of the operator") from exc
    res = np.linalg.norm(shifted @ X - K, axis=(-2, -1))
    if np.any(res > POLE_RESIDUAL_TOL * max(np.linalg.norm(K), 1e-300)):
        raise PoleError(f"lambda={lam} is numerically an eigenvalue of the operator")
    return X


def _check_off_atoms(atoms: tuple, lam) -> None:
    for t, _ in atoms:
        if np.any(np.abs(lam - t) < _POLE_TOL):
            raise PoleError(f"lambda={lam} coincides with atom t={t}")


def _matrix_to_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(M)]


def _matrix_from_json(rows: list) -> np.ndarray:
    M = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


@dataclass(frozen=True)
class RealizedFunction:
    """A matrix-valued Nevanlinna function given by finite data.

    Exactly one of the two variants is populated:

    * ``measure``: value A + B*lam + sum_j W_j ((t_j-lam)^{-1} - t_j/(t_j^2+1))
    * ``realization``: value K* (T - lam I)^{-1} K with T = T*, ||K|| <= 1
    """

    variant: str
    dim: int
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    atoms: tuple = ()
    T: np.ndarray | None = None
    K: np.ndarray | None = None
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        ts = [t for t, _ in self.atoms]
        if not np.all(np.isfinite(ts)):
            raise ValueError("atom positions must be finite")
        if not validate:
            return
        if self.variant == "measure":
            if not _hermitian(self.A):
                raise ValueError("A must be Hermitian")
            if not is_psd_gram(self.B):
                raise ValueError("B must be PSD")
            if len(set(ts)) != len(ts):
                raise ValueError("atom positions must be distinct")
            if not all(is_psd_gram(W) for _, W in self.atoms):
                raise ValueError("atom weights must be PSD")
        elif self.variant == "realization":
            if not _hermitian(self.T):
                raise ValueError("T must be Hermitian")
            _check_contraction(self.K, "K")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")

    @classmethod
    def from_measure(cls, A, B, atoms, *, validate: bool = True) -> "RealizedFunction":
        A = np.atleast_2d(np.asarray(A, dtype=complex))
        B = np.atleast_2d(np.asarray(B, dtype=complex))
        atoms = tuple((float(t), np.atleast_2d(np.asarray(W, dtype=complex))) for t, W in atoms)
        return cls("measure", A.shape[0], A=A, B=B, atoms=atoms, validate=validate)

    @classmethod
    def from_realization(cls, T, K, *, validate: bool = True) -> "RealizedFunction":
        T = np.atleast_2d(np.asarray(T, dtype=complex))
        K = _as_columns(K)
        return cls("realization", K.shape[1], T=T, K=K, validate=validate)

    @classmethod
    def zero(cls, dim: int = 1) -> "RealizedFunction":
        """The identically-zero function (empty measure)."""
        z = np.zeros((dim, dim), dtype=complex)
        return cls.from_measure(z, z, ())

    # -- evaluation ------------------------------------------------------

    def __call__(self, lam: complex) -> np.ndarray:
        return evaluate(self, lam)

    def derivative(self, lam: complex) -> np.ndarray:
        """M'(lam), exact for the finite representations; raises PoleError at a pole."""
        lam = complex(_as_complex(lam))
        if self.variant == "measure":
            _check_off_atoms(self.atoms, lam)
            return sum((W / (t - lam) ** 2 for t, W in self.atoms), self.B.astype(complex))
        X = _resolvent_solve(self.T, self.K, lam)
        return self.K.conj().T @ _resolvent_solve(self.T, X, lam)

    def measure_form(self) -> "RealizedFunction":
        """Equivalent measure variant: diagonalize T, atoms (t_j, K* P_j K)."""
        if self.variant == "measure":
            return self
        w, V = np.linalg.eigh(self.T)
        KV = V.conj().T @ self.K  # rows are P_j-components of K in eigenbasis
        atoms: list[tuple[float, np.ndarray]] = []
        i = 0
        while i < len(w):
            j = i
            while j + 1 < len(w) and w[j + 1] - w[i] < 1e-12:
                j += 1
            block = KV[i : j + 1]
            atoms.append((float(np.mean(w[i : j + 1])), block.conj().T @ block))
            i = j + 1
        d = self.dim
        # measure form carries the atom-shifted affine part of the standard
        # integral representation so that values agree exactly
        A = sum(W * (t / (t * t + 1.0)) for t, W in atoms) if atoms else np.zeros((d, d), dtype=complex)
        return RealizedFunction.from_measure(np.atleast_2d(A), np.zeros((d, d)), atoms)

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> str:
        if self.variant == "measure":
            doc = {
                "variant": "measure",
                "dim": self.dim,
                "A": _matrix_to_json(self.A),
                "B": _matrix_to_json(self.B),
                "atoms": [{"t": t, "W": _matrix_to_json(W)} for t, W in self.atoms],
            }
        else:
            doc = {
                "variant": "realization",
                "dim": self.dim,
                "T": _matrix_to_json(self.T),
                "K": _matrix_to_json(self.K),
            }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str, *, validate: bool = True) -> "RealizedFunction":
        doc = json.loads(text)
        if doc["variant"] == "measure":
            return cls.from_measure(
                _matrix_from_json(doc["A"]),
                _matrix_from_json(doc["B"]),
                [(a["t"], _matrix_from_json(a["W"])) for a in doc["atoms"]],
                validate=validate,
            )
        if doc["variant"] == "realization":
            return cls.from_realization(
                _matrix_from_json(doc["T"]), _matrix_from_json(doc["K"]), validate=validate
            )
        raise ValueError(f"unknown variant {doc['variant']!r}")


@dataclass(frozen=True)
class SampleSet:
    """Finite set of off-axis sample points with one test vector per point."""

    points: tuple
    vectors: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("sample set must be nonempty")
        if len(self.vectors) != len(self.points):
            raise ValueError("one vector per sample point is required")
        pts = np.array(self.points, dtype=complex)
        if not (np.all(np.isfinite(pts)) and np.all(pts.imag != 0.0)):
            raise ValueError("sample points must be finite and off the real axis")

    @classmethod
    def of(cls, points, vectors) -> "SampleSet":
        return cls(tuple(complex(p) for p in points), tuple(np.asarray(v, dtype=complex) for v in vectors))


def evaluate(F: RealizedFunction, lam) -> np.ndarray:
    """Value of F at lam, shape lam.shape + (d, d); raises PoleError when any
    lam is an atom / eigenvalue of T.  A realization solves one n x n system per lam."""
    lam = _as_complex(lam)
    if F.variant == "measure":
        _check_off_atoms(F.atoms, lam)
        out = F.A + F.B * np.expand_dims(lam, (-2, -1))
        for t, W in F.atoms:
            out = out + W * np.expand_dims(1.0 / (t - lam) - t / (t * t + 1.0), (-2, -1))
        return np.asarray(out, dtype=complex)
    return F.K.conj().T @ _resolvent_solve(F.T, F.K, lam)


def asymptotic_C(F: RealizedFunction) -> np.ndarray:
    """C = -lim iy M(iy): K*K for realizations, total atom mass for measures."""
    if F.variant == "realization":
        return F.K.conj().T @ F.K
    if np.max(np.abs(F.B)) > 0:
        raise UnboundedLimitError("linear term B != 0: iy M(iy) is unbounded")
    C = np.zeros((F.dim, F.dim), dtype=complex)
    for _, W in F.atoms:
        C = C + W
    return C


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
    pts, vecs = S.points, S.vectors
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
    lam = np.array(S.points)
    xb = lam.conj()
    V = np.array(S.vectors)
    denom = lam[:, None] - xb  # [k, l]: lam_k - conj(xi_l), both running over the points
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("lam = conj(xi) collision: kernel has no defined diagonal limit")
    # A[k, l] = v_k* M(lam_k) v_l, so v_k* M(xi_l)* v_l = conj(A[l, k])
    A = np.einsum("ki,kij,lj->kl", V.conj(), evaluate(F, lam), V)
    G = ((1 - lam * lam)[:, None] * A - (1 - xb * xb) * A.conj().T - denom * (V.conj() @ V.T)) / denom
    return (G + G.conj().T) / 2.0


def min_eig(G: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(G).min())


def is_psd_gram(G: np.ndarray, tol: float = PSD_TOL) -> bool:
    """Scale-relative PSD check of the Hermitian part of G: its eigenvalues w
    satisfy min w >= -tol * (1 + max |w|)."""
    w = np.linalg.eigvalsh((G + G.conj().T) / 2.0)
    return bool(w.min() >= -tol * (1.0 + np.abs(w).max()))


def random_nevanlinna(seed: int, d: int, n: int, *, contraction: bool = True) -> RealizedFunction:
    """Deterministic random realization variant with ||K|| <= 1.

    With ``contraction=True`` the operator T is scaled to spectrum in [-1,1].
    """
    if d < 1 or n < d:
        raise ValueError("need d >= 1 and n >= d")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    T = (G + G.conj().T) / 2.0
    if contraction:
        T = T / np.linalg.norm(T, 2)
    K = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    K = K / max(1.0, np.linalg.norm(K, 2))
    return RealizedFunction.from_realization(T, K)


def random_contraction_resolvent(seed: int, d: int, n: int) -> RealizedFunction:
    """Deterministic compressed resolvent P_M (T - lam)^{-1}|_M of a random
    Hermitian contraction, i.e. a member of the class realized by selfadjoint
    contractions (K is a random isometric embedding)."""
    if d < 1 or n < d:
        raise ValueError("need d >= 1 and n >= d")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    T = (G + G.conj().T) / 2.0
    T = T / np.linalg.norm(T, 2)
    Q, _ = np.linalg.qr(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    return RealizedFunction.from_realization(T, Q[:, :d])
