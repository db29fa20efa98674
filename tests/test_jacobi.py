import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevtrans.errors import CutError, PoleError
from nevtrans.herglotz import RealizedFunction
from nevtrans.jacobi import (
    BlockJacobi,
    _solve,
    build_J0,
    build_Jhat0,
    m_cf,
    m_resolvent,
    quadrature_m0,
)
from nevtrans.specialfn import m0_gamma, m0_gammahat
from nevtrans.transforms import iterate_gamma_hat


def random_jacobi(seed, d, N):
    rng = np.random.default_rng(seed)
    a = []
    b = []
    for _ in range(N):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a.append((G + G.conj().T) / 2)
    for _ in range(N - 1):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b.append(G + 3 * np.eye(d))  # keep well away from singular
    return BlockJacobi.of(a, b)


def dense_m(J, lam):
    """Top-left block of (J - lam)^{-1} from the eigendecomposition of the dense matrix."""
    w, V = np.linalg.eigh(J.dense())
    return (V[: J.d] / (w - lam)) @ V[: J.d].conj().T


def route_tol(M, lam):
    """The tolerance of the Jacobi routes against dense_m: the resolvent bound 1/|Im lam| scales it."""
    return 1e-12 * (1.0 + np.max(np.abs(M))) / min(1.0, abs(lam.imag))


class TestBuilders:
    def test_J0_scalar_entries(self):
        J = build_J0(1, 3)
        assert all(abs(x[0, 0]) == 0 for x in J.a)
        assert abs(J.b[0][0, 0] - 1 / math.sqrt(2)) < 1e-16
        assert abs(J.b[1][0, 0] - 0.5) < 1e-16

    def test_J0_block_entries(self):
        J = build_J0(2, 2)
        assert np.max(np.abs(J.b[0] - np.eye(2) / math.sqrt(2))) < 1e-16

    def test_Jhat0_dense(self):
        J = build_Jhat0(1, 2)
        assert np.array_equal(J.dense(), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_J0(1, 1)
        with pytest.raises(ValueError):
            build_Jhat0(0, 3)

    def test_corner_embedding_exact(self):
        for N in (2, 5, 9):
            big = build_Jhat0(2, N + 1).dense()
            small = build_Jhat0(2, N).dense()
            assert np.array_equal(big[: 2 * N, : 2 * N], small)
            bigc = build_J0(3, N + 1).dense()
            smallc = build_J0(3, N).dense()
            assert np.array_equal(bigc[: 3 * N, : 3 * N], smallc)


class TestMResolvent:
    def test_single_block(self):
        J = BlockJacobi.of([[[0.0]]], [])
        assert abs(m_resolvent(J, 1j)[0, 0] - 1j) < 1e-15

    def test_jhat0_depth_two(self):
        J = build_Jhat0(1, 2)
        assert abs(m_resolvent(J, 2j)[0, 0] - 0.4j) < 1e-15

    def test_conjugate_symmetry(self):
        J = random_jacobi(3, 2, 6)
        for lam in (1 + 1j, -2 + 0.5j, 0.3 - 2j):
            M1 = m_resolvent(J, np.conj(lam))
            M2 = m_resolvent(J, lam).conj().T
            assert np.max(np.abs(M1 - M2)) < 1e-13

    def test_matches_dense_inverse(self):
        J = random_jacobi(4, 2, 5)
        lam = 0.7 + 1.3j
        dense = np.linalg.inv(J.dense() - lam * np.eye(10))[:2, :2]
        assert np.max(np.abs(m_resolvent(J, lam) - dense)) < 1e-12

    def test_pole_error(self):
        J = build_Jhat0(1, 2)  # eigenvalues -1, 1
        for lam in (1.0 + 0j, np.array([[2j, 1.0], [0.5j, -3j]])):  # one pole fails the whole array
            with pytest.raises(PoleError):
                m_resolvent(J, lam)
        # an eigenvalue the solve does not see as singular: the residual shows it
        with pytest.raises(PoleError, match="residual"):
            m_resolvent(build_Jhat0(1, 3), math.sqrt(2))


class TestMCf:
    def test_convergents_match_iteration_values(self):
        lam = 2j
        # successive convergents 0.5i, 0.4i, 0.41666...i
        assert abs(m_cf(BlockJacobi.of([[[0.0]]], []), lam)[0, 0] - 0.5j) < 1e-15
        assert abs(m_cf(build_Jhat0(1, 2), lam)[0, 0] - 0.4j) < 1e-15
        assert abs(m_cf(build_Jhat0(1, 3), lam)[0, 0] - 0.5j / 1.2) < 1e-15

    def test_depth_one_closed_form(self):
        J = BlockJacobi.of([[[0.7]]], [])
        lam = 1 + 1j
        assert abs(m_cf(J, lam)[0, 0] + 1.0 / (lam - 0.7)) < 1e-15

    def test_agreement_with_resolvent(self):
        rng = np.random.default_rng(9)
        for seed in range(4):
            J = random_jacobi(seed, 2, 6)
            for _ in range(25):
                lam = complex(rng.uniform(-4, 4), rng.choice([-1, 1]) * rng.uniform(0.3, 3))
                M1 = m_resolvent(J, lam)
                M2 = m_cf(J, lam)
                assert np.max(np.abs(M1 - M2)) <= 1e-12 * (1.0 + np.max(np.abs(M1)))

    def test_interlacing_with_iteration(self):
        # the fraction of the free-Schroedinger truncation is the N-th step of
        # the fixed-point iteration started from zero, block case included
        for d in (1, 2):
            F = RealizedFunction.zero(d)
            for lam in (2j, 1 + 1.5j):
                trace = iterate_gamma_hat(F, lam, 8)
                for N in range(2, 9):
                    got = m_cf(build_Jhat0(d, N), lam)
                    assert np.max(np.abs(got - trace.values[N - 1])) < 1e-12

    def test_pole_error(self):
        for lam in (1.0 + 0j, np.array([[2j, 1.0], [0.5j, -3j]])):
            with pytest.raises(PoleError):
                m_cf(build_Jhat0(1, 2), lam)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PoleError, match="not finite"):
            m_cf(BlockJacobi.of([0.0, 0.0], [1e200]), 1e-300j)

    @pytest.mark.parametrize("d", [1, 3])
    def test_lambda_array_equals_stacked_calls(self, d, lam_grid, stacked):
        J = random_jacobi(10 + d, d, 7)
        for route in (m_cf, m_resolvent):
            got = route(J, lam_grid)
            assert got.shape == lam_grid.shape + (d, d)
            assert np.array_equal(got, stacked(lambda lam: route(J, lam), lam_grid))
            assert route(J, lam_grid[0, 0]).shape == (d, d)


class TestReductions:
    """Both routes are log-depth reductions: the odd and even counts of every level, against a dense solve."""

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 63, 64, 65])
    def test_matches_dense_eigendecomposition(self, d, N):
        J = random_jacobi(100 * d + N, d, N)
        for im in (1e-3, -1e-3, 1.0, -1.0):
            lam = complex(0.37, im)
            want = dense_m(J, lam)
            for route in (m_resolvent, m_cf):
                got = route(J, lam)
                assert got.shape == (d, d)
                assert np.max(np.abs(got - want)) <= route_tol(want, lam), route.__name__

    def test_pole_of_an_odd_length_chain(self):
        J = build_Jhat0(1, 3)  # eigenvalues -sqrt(2), 0, sqrt(2)
        for lam in (0.0, np.array([2j, 0.0, -1j])):
            for route in (m_resolvent, m_cf):
                with pytest.raises(PoleError):
                    route(J, lam)

    def test_exactly_singular_pivot_raises_without_a_warning(self):
        # a_1 - lam = 0 is a first-level pivot of the cyclic reduction and a leaf of the star tree
        J = BlockJacobi.of([0.0, 1.0, 0.0], [1.0, 1.0])  # eigenvalues -1, 0, 2
        for route in (m_resolvent, m_cf):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(PoleError, match="singular shift"):
                    route(J, 1.0)

    def test_scalar_solve_matches_lapack(self):
        # 1 x 1 blocks are divided, not passed to LAPACK: the same x to a few ulps of |x|
        rng = np.random.default_rng(11)
        scale = 10.0 ** rng.uniform(-300, 300, (4, 500, 1, 1))  # tiny and huge pivots
        A = scale * (rng.standard_normal((4, 500, 1, 1)) + 1j * rng.standard_normal((4, 500, 1, 1)))
        B = rng.standard_normal((1, 500, 1, 3)) + 1j * rng.standard_normal((1, 500, 1, 3))
        got, want = _solve(A, B), np.linalg.solve(A, B)
        assert got.shape == want.shape == (4, 500, 1, 3)
        assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))
        A3 = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        B3 = rng.standard_normal((5, 3, 2)) + 0j
        assert np.array_equal(_solve(A3, B3), np.linalg.solve(A3, B3))  # d > 1 is LAPACK's own call
        A[2, 7] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _solve(A, B)
        with warnings.catch_warnings():  # an overflowing quotient is as silent as in LAPACK
            warnings.simplefilter("error", RuntimeWarning)
            x = _solve(np.full((1, 1, 1), 1e-300 + 0j), np.full((1, 1, 1), 1e300 + 0j))
        assert np.isinf(x.real).all()

    def test_results_do_not_keep_the_reduction_alive(self):
        # a view into the levels would hold O(N d^2) numbers per returned d x d block
        J = random_jacobi(3, 2, 64)
        for lam in (1j, np.array([1j, -2j])):
            for route in (m_resolvent, m_cf):
                assert route(J, lam).base is None

    def test_solve_right_hand_sides_have_the_matrices_ndim(self, monkeypatch):
        # numpy < 2 reads a right-hand side with one axis fewer than the
        # matrices as a stack of vectors; a 1-d lam array would hit that
        solve = np.linalg.solve
        seen = []

        def checked(a, b):
            seen.append(np.ndim(a) == np.ndim(b))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked)
        J = random_jacobi(7, 2, 5)
        for lam in (1j, np.array([1j, 2 - 1j]), np.array([[1j], [-0.5j]])):
            for route in (m_resolvent, m_cf):
                route(J, lam)
        assert seen and all(seen)


@st.composite
def jacobi_and_lambda(draw):
    d, N = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))
    b = rng.standard_normal((N - 1, d, d)) + 1j * rng.standard_normal((N - 1, d, d))
    J = BlockJacobi.of((G + np.swapaxes(G.conj(), -1, -2)) / 2, b)
    im = draw(st.floats(0.01, 3.0)) * draw(st.sampled_from([-1, 1]))
    return J, complex(draw(st.floats(-4.0, 4.0)), im)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(jacobi_and_lambda())
def test_routes_agree_with_the_dense_eigendecomposition(case):
    J, lam = case
    want = dense_m(J, lam)
    for route in (m_resolvent, m_cf):
        assert np.max(np.abs(route(J, lam) - want)) <= route_tol(want, lam), route.__name__


class TestTruncationConvergence:
    def test_jhat0_limit(self):
        lam = 1 + 2j
        errs = [
            abs(m_resolvent(build_Jhat0(1, N), lam)[0, 0] - m0_gammahat(lam))
            for N in range(10, 210, 10)
        ]
        # monotone decrease until the double-precision floor swallows it
        for e1, e2 in zip(errs, errs[1:]):
            if e1 < 1e-14:
                break
            assert e2 <= e1
        assert errs[-1] < 1e-8

    def test_j0_limit(self):
        lam = 2j
        err = abs(m_resolvent(build_J0(1, 400), lam)[0, 0] - m0_gamma(lam))
        assert err < 1e-10


class TestQuadrature:
    def test_kind1_matches_closed_form(self):
        assert abs(quadrature_m0(2j, 10_000, 1) - m0_gamma(2j)) < 1e-10
        assert type(quadrature_m0(2j, 100, 1)) is complex and type(quadrature_m0(2j, 100, 2)) is complex

    def test_kind2_matches_closed_form(self):
        assert abs(quadrature_m0(2j, 10_000, 2) - m0_gammahat(2j)) < 1e-10

    def test_asymptotic(self):
        y = 1e3
        assert abs(quadrature_m0(1j * y, 10_000, 1) - 1j / y) < 1e-9

    def test_cut_rejection(self):
        with pytest.raises(CutError):
            quadrature_m0(0.5 + 0j, 100, 1)
        with pytest.raises(CutError):
            quadrature_m0(1.5 + 0j, 100, 2)
        with pytest.raises(CutError):  # one cut point fails the whole array
            quadrature_m0(np.array([2j, -1.0 + 0j]), 100, 1)

    @pytest.mark.parametrize("kind", [1, 2])
    def test_lambda_array_matches_stacked_calls(self, kind, lam_grid, stacked):
        got = quadrature_m0(lam_grid, 1000, kind)
        want = stacked(lambda lam: quadrature_m0(lam, 1000, kind), lam_grid)
        assert got.shape == lam_grid.shape
        assert np.all(np.abs(got - want) <= 4e-16 * (1.0 + np.abs(want)))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            quadrature_m0(2j, 100, 3)


class TestChebyshevRecurrence:
    def test_regenerate_coefficients(self):
        # Lanczos on the discretized Chebyshev weight must reproduce the
        # matrix entries b0 = 1/sqrt(2), b_k = 1/2
        n = 4000
        i = np.arange(1, n + 1)
        t = np.cos((2 * i - 1) * np.pi / (2 * n))
        w = np.full(n, 1.0 / n)
        k_coeffs = 6
        a = np.zeros(k_coeffs)
        b = np.zeros(k_coeffs - 1)
        p_prev = np.zeros(n)
        p = np.ones(n)
        for k in range(k_coeffs):
            a[k] = np.sum(w * t * p * p)
            q = (t - a[k]) * p - (b[k - 1] * p_prev if k > 0 else 0.0)
            if k < k_coeffs - 1:
                b[k] = math.sqrt(np.sum(w * q * q))
                p_prev, p = p, q / b[k]
        assert np.max(np.abs(a)) < 1e-13
        assert abs(b[0] - 1 / math.sqrt(2)) < 1e-10
        assert np.max(np.abs(b[1:] - 0.5)) < 1e-10


class TestStructure:
    def test_equality_is_identity(self):
        J = build_Jhat0(1, 3)
        assert (J == J) is True
        assert (J == build_Jhat0(1, 3)) is False

    def test_json_round_trip(self):
        J = random_jacobi(5, 2, 4)
        J2 = BlockJacobi.from_json(J.to_json())
        assert np.array_equal(J.dense(), J2.dense())

    def test_json_dim_mismatch(self):
        import json as jsonlib

        doc = jsonlib.loads(build_Jhat0(1, 3).to_json())
        doc["d"] = 2
        with pytest.raises(ValueError):
            BlockJacobi.from_json(jsonlib.dumps(doc))

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockJacobi.of([[[1j]]], [])  # non-Hermitian diagonal
        with pytest.raises(ValueError):
            BlockJacobi.of([[[0.0]], [[0.0]]], [[[0.0]]])  # singular off-diagonal
        with warnings.catch_warnings():  # |b| |1/b| of a zero block is inf, not 0 * inf = nan
            warnings.simplefilter("error", RuntimeWarning)
            for a, b in (([0.0, 0.0], [0.0]), ([[0.0]] * 2, [[0.0]]), ([0.0, 0.0], [1e-310]), ([0.0, 0.0], [-1e-320j])):
                with pytest.raises(ValueError):
                    BlockJacobi.of(a, b)
            assert BlockJacobi.of([0.0, 0.0], [1e-300 + 1e-300j]).N == 2  # small, but its inverse is finite
        with pytest.raises(ValueError):  # determinant 1e-15, condition number above 1e15
            BlockJacobi.of(np.zeros((2, 2, 2)), [[[1.0, 1.0], [1.0, 1.0 + 1e-15]]])
        # determinant 1e-340 underflows to 0, but the block is a multiple of I
        J = BlockJacobi.of(np.zeros((2, 2, 2)), [1e-170 * np.eye(2)])
        assert np.array_equal(J.dense()[:2, 2:], 1e-170 * np.eye(2))

    @pytest.mark.parametrize("form", ["scalars", "scalar array", "1x1 blocks", "blocks", "block array", "single block"])
    def test_accepted_input_forms(self, form):
        rng = np.random.default_rng(8)
        d = 1 if form in ("scalars", "scalar array", "1x1 blocks") else 2
        N = 1 if form == "single block" else 4
        a = [(G + G.conj().T) / 2 for G in rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))]
        b = [G + 3 * np.eye(d) for G in rng.standard_normal((N - 1, d, d))]
        want = np.zeros((N * d, N * d), dtype=complex)  # the matrix assembled block by block
        for k in range(N):
            want[k * d:(k + 1) * d, k * d:(k + 1) * d] = a[k]
        for k in range(N - 1):
            want[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = b[k]
            want[(k + 1) * d:(k + 2) * d, k * d:(k + 1) * d] = b[k].conj().T
        args = {
            "scalars": ([float(x[0, 0].real) for x in a], [float(x[0, 0]) for x in b]),
            "scalar array": (np.array([x[0, 0].real for x in a]), np.array([x[0, 0] for x in b])),
            "1x1 blocks": ([x.tolist() for x in a], [x.tolist() for x in b]),
            "blocks": (a, tuple(b)),
            "block array": (np.array(a), np.array(b)),
            "single block": (a, []),
        }[form]
        J = BlockJacobi.of(*args)
        assert (J.N, J.d) == (N, d)
        assert np.array_equal(J.dense(), want)
        assert J.a.shape == (N, d, d) and J.b.shape == (N - 1, d, d)
        for x in args[0], args[1]:  # J holds copies: a later write to an input array does not reach it
            if isinstance(x, np.ndarray):
                x[...] = np.nan
        assert np.array_equal(J.dense(), want)

    def test_non_finite_and_ragged_blocks_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            BlockJacobi.of([[[0.0]], [[0.0]]], [[[nan]]])
        with pytest.raises(ValueError):
            BlockJacobi.of([[[nan]], [[0.0]]], [[[1.0]]])
        with pytest.raises(ValueError):
            BlockJacobi.of([[[0.0]], np.zeros((2, 2))], [[[1.0]]])
