import numpy as np
import pytest

from nevtrans.errors import NotContractionError, PoleError
from nevtrans.herglotz import evaluate, random_contraction_resolvent, random_nevanlinna
from nevtrans.jacobi import build_Jhat0
from nevtrans.realize import (
    ChainOperator,
    SubspaceRealization,
    bold_T,
    chain_A,
    compressed_resolvent,
    compressed_resolvent_schur,
    defect_operator,
    simplicity_check,
)
from nevtrans.transforms import gamma, gamma_hat


def contraction_realization(seed, d, n):
    F = random_contraction_resolvent(seed, d, n)
    return SubspaceRealization.of(F.T, F.K)


class TestDefect:
    def test_zero_operator(self):
        D, Q = defect_operator(np.zeros((3, 3)))
        assert np.max(np.abs(D - np.eye(3))) < 1e-15
        assert Q.shape == (3, 3)

    def test_identity(self):
        D, Q = defect_operator(np.eye(3))
        assert np.max(np.abs(D)) < 1e-15
        assert Q.shape[1] == 0

    def test_diagonal(self):
        D, _ = defect_operator(np.diag([0.6, -0.8]))
        assert np.max(np.abs(D - np.diag([0.8, 0.6]))) < 1e-15

    def test_not_contraction(self):
        with pytest.raises(NotContractionError):
            defect_operator(1.1 * np.eye(2))

    def test_square_identity(self):
        R = contraction_realization(1, 2, 6)
        D, _ = defect_operator(R.T)
        assert np.max(np.abs(D @ D - (np.eye(6) - R.T @ R.T))) < 1e-12


class TestBoldT:
    def test_zero_on_subspace(self):
        R = SubspaceRealization.of(np.zeros((1, 1)), np.eye(1))
        bT = bold_T(R)
        assert np.max(np.abs(bT.T - np.array([[0, 1], [1, 0]]))) < 1e-15
        lam = 2j
        got = bT.m_function(lam)[0, 0]
        assert abs(got - (-lam / (lam * lam - 1.0))) < 1e-14
        # equals gamma applied to M(lam) = -1/lam
        assert abs(got - gamma(np.array([[-1.0 / lam]]), lam)[0, 0]) < 1e-14

    def test_realization_identity(self):
        rng = np.random.default_rng(4)
        for seed in range(4):
            R = contraction_realization(seed, 3, 12)
            bT = bold_T(R)
            assert np.linalg.norm(bT.T, 2) <= 1.0 + 1e-12
            for _ in range(10):
                lam = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.3, 3))
                M = R.m_function(lam)
                want = np.linalg.inv(M) / (lam * lam - 1.0)
                assert np.max(np.abs(bT.m_function(lam) - want)) < 1e-10

    def test_simplicity_preserved(self):
        for seed in range(5):
            R = contraction_realization(seed, 2, 7)
            if simplicity_check(R)[0]:
                assert simplicity_check(bold_T(R))[0]

    def test_defect_space_spectrum(self):
        # nonunimodular spectrum of the dilation compressed to its own defect
        # space matches the compression of T to the orthocomplement of the
        # distinguished subspace
        for seed in (1, 2, 3, 9):
            R = contraction_realization(seed, 2, 6)
            bT = bold_T(R)
            _, Qb = defect_operator(bT.T)
            w1 = np.linalg.eigvalsh(Qb.conj().T @ bT.T @ Qb)
            w1 = np.sort(w1[np.abs(np.abs(w1) - 1.0) > 1e-9])
            U = np.linalg.svd(R.M_basis, full_matrices=True)[0]
            comp = U[:, R.d :]
            w2 = np.sort(np.linalg.eigvalsh(comp.conj().T @ R.T @ comp))
            assert len(w1) == len(w2)
            assert np.max(np.abs(w1 - w2)) < 1e-9


class TestCompressedResolvent:
    def test_diagonal(self):
        A = np.diag([1.0, -1.0])
        basis = np.array([[1.0], [0.0]])
        got = compressed_resolvent(A, basis, 2j)[0, 0]
        assert abs(got - 1.0 / (1.0 - 2j)) < 1e-15

    def test_schur_complement_agreement(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            d, h = 2, 5
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            D = (G + G.conj().T) / 2
            G = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
            T = (G + G.conj().T) / 2
            K = rng.standard_normal((h, d)) + 1j * rng.standard_normal((h, d))
            A = np.block([[D, K.conj().T], [K, T]])
            basis = np.zeros((d + h, d))
            basis[:d] = np.eye(d)
            for _ in range(10):
                lam = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.5, 3))
                direct = compressed_resolvent(A, basis, lam)
                schur = compressed_resolvent_schur(D, K, T, lam)
                assert np.max(np.abs(direct - schur)) < 1e-11

    def test_all_four_blocks(self):
        # full block inverse vs the Schur-complement closed forms
        rng = np.random.default_rng(13)
        d, h = 2, 4
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        D = (G + G.conj().T) / 2
        G = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
        T = (G + G.conj().T) / 2
        K = rng.standard_normal((h, d)) + 1j * rng.standard_normal((h, d))
        A = np.block([[D, K.conj().T], [K, T]])
        lam = 0.6 + 1.4j
        inv = np.linalg.inv(A - lam * np.eye(d + h))
        Rt = np.linalg.inv(T - lam * np.eye(h))
        S = np.linalg.inv(D - lam * np.eye(d) - K.conj().T @ Rt @ K)
        scale = np.max(np.abs(inv))
        assert np.max(np.abs(inv[:d, :d] - S)) < 1e-11 * scale
        assert np.max(np.abs(inv[:d, d:] - (-S @ K.conj().T @ Rt))) < 1e-11 * scale
        assert np.max(np.abs(inv[d:, :d] - (-Rt @ K @ S))) < 1e-11 * scale
        assert np.max(np.abs(inv[d:, d:] - (Rt + Rt @ K @ S @ K.conj().T @ Rt))) < 1e-11 * scale

    def test_pole_guard(self):
        for lam in (1.0 + 0j, np.array([[2j, 1.0], [0.5j, -3j]])):  # one pole fails the whole array
            with pytest.raises(PoleError):
                compressed_resolvent(np.diag([1.0, -1.0]), np.array([[1.0], [0.0]]), lam)

    @pytest.mark.parametrize("d", [1, 3])
    def test_lambda_array_equals_stacked_calls(self, d, lam_grid, stacked):
        R = contraction_realization(20 + d, d, 7)
        got = R.m_function(lam_grid)
        assert got.shape == lam_grid.shape + (d, d)
        assert np.array_equal(got, stacked(lambda lam: compressed_resolvent(R.T, R.M_basis, lam), lam_grid))
        assert R.m_function(lam_grid[0, 0]).shape == (d, d)

    def test_schur_pole_guard(self):
        # lam an eigenvalue of T: the inner solve is singular
        with pytest.raises(PoleError):
            compressed_resolvent_schur([[0.0]], [[0.5], [0.5]], np.diag([-1.0, 1.0]), 1.0 + 0j)
        # K = 0 decouples D = 0, so lam = 0 is a pole of the compressed resolvent itself
        with pytest.raises(PoleError):
            compressed_resolvent_schur([[0.0]], [[0.0]], [[2.0]], 0j)


class TestChain:
    def test_smallest_chain(self):
        C = chain_A(np.array([[1.0]]), np.array([[0.0]]), 1)
        assert np.array_equal(C.assembled, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_realization_identity(self):
        rng = np.random.default_rng(14)
        for seed in range(3):
            F = random_nevanlinna(seed, 2, 5)
            for n in (1, 3, 6):
                C = chain_A(F.K, F.T, n)
                for _ in range(10):
                    lam = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.5, 3))
                    val = evaluate(F, lam)
                    for _ in range(n):
                        val = gamma_hat(val, lam)
                    got = compressed_resolvent(C.assembled, C.m_basis(), lam)
                    assert np.max(np.abs(got - val)) < 1e-10

    def test_corner_is_free_schroedinger(self):
        F = random_nevanlinna(5, 2, 5)
        for n in (2, 4, 6):
            C = chain_A(F.K, F.T, n)
            assert np.array_equal(
                C.assembled[: 2 * n, : 2 * n], build_Jhat0(2, n).dense()
            )

    def test_telescoping(self):
        F = random_nevanlinna(6, 1, 4)
        lam = 0.5 + 1.5j
        prev = compressed_resolvent(
            chain_A(F.K, F.T, 1).assembled, chain_A(F.K, F.T, 1).m_basis(), lam
        )
        for n in range(2, 6):
            C = chain_A(F.K, F.T, n)
            cur = compressed_resolvent(C.assembled, C.m_basis(), lam)
            assert np.max(np.abs(cur - gamma_hat(prev, lam))) < 1e-12
            prev = cur

    def test_minimality_matches_rank_simplicity(self):
        # chain of depth 1 is minimal over the subspace iff the inner operator
        # is simple over the range of the coupling
        cases = [
            (np.array([[1.0], [1.0]]) / np.sqrt(2.0), np.diag([1.0, 2.0]), True),
            (np.array([[1.0], [0.0]]), np.diag([1.0, 1.0]), False),
        ]
        for K, That, expect in cases:
            inner = SubspaceRealization.of(That, K / np.linalg.norm(K, 2))
            C = chain_A(K, That, 1)
            outer = SubspaceRealization.of(C.assembled, C.m_basis())
            assert simplicity_check(inner)[0] == expect
            assert simplicity_check(outer)[0] == expect

    def test_validation(self):
        with pytest.raises(NotContractionError):
            chain_A(np.array([[2.0]]), np.array([[0.0]]), 1)
        with pytest.raises(ValueError):
            chain_A(np.array([[1.0]]), np.array([[0.0]]), 0)
        with pytest.raises(ValueError):
            chain_A(np.array([[1.0], [0.0]]), np.array([[0.0]]), 1)  # dim mismatch

    def test_dimension_cap(self):
        K = np.zeros((2, 1))
        K[0, 0] = 1.0
        with pytest.raises(ValueError):
            chain_A(K, np.zeros((2, 2)), 5000)


class TestSimplicity:
    def test_vandermonde_simple(self):
        R = SubspaceRealization.of(np.diag([1.0, 2.0]), np.array([1.0, 1.0]) / np.sqrt(2))
        simple, rank = simplicity_check(R)
        assert simple and rank == 2

    def test_degenerate_not_simple(self):
        R = SubspaceRealization.of(np.diag([1.0, 1.0]), np.array([1.0, 0.0]))
        simple, rank = simplicity_check(R)
        assert not simple and rank == 1

    @pytest.mark.parametrize("seed, d, n", [(1, 1, 32), (2, 1, 32), (1, 3, 129)])
    def test_generic_realizations_are_simple(self, seed, d, n):
        # on these inputs the Krylov matrix [M, TM, ..., T^(n-1) M] has numerical
        # rank 23, 25 and 80, so a rank test on it would undercount
        assert simplicity_check(contraction_realization(seed, d, n)) == (True, n)

    @pytest.mark.parametrize("shared", [False, True])
    def test_summand_that_m_cannot_see(self, shared):
        # T1 + T2 on C^32 + C^5 with M inside C^32; with shared, T2's eigenvalues
        # are eigenvalues of T1, so each of them gives a two-dimensional eigenspace
        R = contraction_realization(1, 1, 32)
        T2 = np.diag(np.linalg.eigvalsh(R.T)[::7] if shared else np.linspace(-0.95, 0.95, 5))
        T = np.block([[R.T, np.zeros((32, 5))], [np.zeros((5, 32)), T2]])
        M = np.vstack([R.M_basis, np.zeros((5, 1))])
        assert simplicity_check(SubspaceRealization.of(T, M)) == (False, 32)


class TestSubspaceRealization:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubspaceRealization.of([[1j]], [[1.0]])  # not Hermitian
        with pytest.raises(ValueError):
            SubspaceRealization.of([[0.0, 0], [0, 0.0]], np.array([[1.0], [1.0]]))  # not orthonormal

    def test_chain_operator_fields(self):
        C = chain_A(np.array([[0.5]]), np.array([[0.3]]), 2)
        assert isinstance(C, ChainOperator)
        assert C.d == 1
        assert C.assembled.shape == (3, 3)
