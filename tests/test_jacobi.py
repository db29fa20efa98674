import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevtrans import jacobi
from nevtrans.errors import CutError, PoleError
from nevtrans.herglotz import RealizedFunction, _finite_inv
from nevtrans.jacobi import (
    BlockJacobi,
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

    @pytest.mark.parametrize("N", [127, 128, 129, 255, 256, 257, 300])
    def test_long_scalar_chains_match_dense_eigendecomposition(self, N):
        # d = 1 runs on flat arrays: the recursion over N steps, the reduction over 7 to 9 levels
        J = random_jacobi(N, 1, N)
        for im in (1e-3, -1e-3, 1.0, -1.0):
            lam = complex(0.37, im)
            want = dense_m(J, lam)
            for route in (m_resolvent, m_cf):
                assert np.max(np.abs(route(J, lam) - want)) <= route_tol(want, lam), route.__name__

    def test_pole_of_an_odd_length_chain(self):
        J = build_Jhat0(1, 3)  # eigenvalues -sqrt(2), 0, sqrt(2)
        for lam in (0.0, np.array([2j, 0.0, -1j])):
            for route in (m_resolvent, m_cf):
                with pytest.raises(PoleError):
                    route(J, lam)

    def test_exactly_singular_pivot_raises_without_a_warning(self):
        J = BlockJacobi.of([0.0, 1.0, 0.0], [1.0, 1.0])  # eigenvalues -1, 0, 2
        # lam = 1, off the spectrum: a_1 - lam = 0 is a first-level pivot of the cyclic
        # reduction, but no denominator of the J-fraction's backward recursion
        assert m_cf(J, 1.0)[0, 0] == -0.5
        assert abs(dense_m(J, 1.0)[0, 0] + 0.5) < 1e-15
        # m_resolvent still meets that pivot; at lam = 0, an eigenvalue, a_2 - lam = 0 is
        # the recursion's first denominator
        for route, lam in ((m_resolvent, 1.0), (m_cf, 0.0), (m_cf, np.array([2j, 0.0]))):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(PoleError, match="singular shift"):
                    route(J, lam)

    def test_scalar_solve_matches_lapack(self):
        # _finite_inv divides a 1 x 1 block, not passing it to LAPACK: the same inverse to a few ulps
        rng = np.random.default_rng(11)
        scale = 10.0 ** rng.uniform(-300, 300, (4, 500, 1, 1))  # tiny and huge pivots
        A = scale * (rng.standard_normal((4, 500, 1, 1)) + 1j * rng.standard_normal((4, 500, 1, 1)))
        got, want = _finite_inv(A), np.linalg.inv(A)
        assert got.shape == want.shape == (4, 500, 1, 1)
        assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))
        A3 = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        assert np.array_equal(_finite_inv(A3), np.linalg.inv(A3))  # d > 1 solves against I, as inv does
        A[2, 7] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _finite_inv(A)
        with warnings.catch_warnings():  # a reciprocal that overflows is not finite, without a warning
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                _finite_inv(np.full((1, 1, 1), 1e-320 + 0j))
            assert _finite_inv(np.full((1, 1), 1e308 + 1e308j))[0, 0] == 5e-309 - 5e-309j  # a quarter of M

    def test_the_pole_error_quotes_the_core_residual(self):
        # the cores only compute; the route guards the residual its core returns
        lam = math.sqrt(2)  # an eigenvalue of build_Jhat0(1, 3) that no pivot shows as singular
        _, res = jacobi._chain_reduction(build_Jhat0(1, 3), complex(lam))
        assert f"{res:.3e}" == "2.500e-01"
        for d in (1, 3):  # d = 3 is guarded by its scalar chain
            with pytest.raises(PoleError, match=f"solve residual {res:.3e}: "):
                m_resolvent(build_Jhat0(d, 3), lam)
        J = random_jacobi(2, 2, 6)
        pole = complex(np.linalg.eigvalsh(J.dense())[2])
        _, res = jacobi._block_reduction(J, pole)
        assert res > jacobi.POLE_RESIDUAL_TOL * math.sqrt(2)
        with pytest.raises(PoleError, match=f"solve residual {res:.3e}: "):
            m_resolvent(J, pole)

    @pytest.mark.parametrize("d", [1, 3])
    def test_a_lambda_near_the_float_maximum_is_prescaled(self, d, stacked):
        # numpy's division and LAPACK overflow inside past the largest double: at 1e308 + 1e308i
        # m_cf returned -0 and m_resolvent raised PoleError on a residual of 1
        lams = np.array([[1e308 + 1e308j, -1e308 + 1e308j], [-1.5e308 - 5e307j, 0.5 + 2j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for J in (kronecker([0.0, 0.0, 0.0], [1.0, 1.0], d), random_jacobi(5, d, 7)):
                for route in (m_resolvent, m_cf):
                    assert np.array_equal(route(J, 1e308 + 1e308j), (-5e-309 + 5e-309j) * np.eye(d)), route.__name__
                    assert np.array_equal(route(J, lams), stacked(lambda lam: route(J, lam), lams)), route.__name__

    def test_results_do_not_keep_the_reduction_alive(self):
        # a view into the levels would hold O(N d^2) numbers per returned d x d block
        for J in (random_jacobi(3, 2, 64), random_jacobi(3, 1, 64), build_Jhat0(3, 64)):
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


@settings(max_examples=50)
@given(jacobi_and_lambda())
def test_routes_agree_with_the_dense_eigendecomposition(case):
    J, lam = case
    want = dense_m(J, lam)
    for route in (m_resolvent, m_cf):
        assert np.max(np.abs(route(J, lam) - want)) <= route_tol(want, lam), route.__name__


def kronecker(alpha, beta, d):
    """j (x) I_d: every block of the scalar chain (alpha, beta) times I_d."""
    eye = np.eye(d)
    return BlockJacobi.of(np.reshape(alpha, (-1, 1, 1)) * eye, np.reshape(beta, (-1, 1, 1)) * eye)


@st.composite
def kronecker_and_lambda(draw):
    """A scalar chain (real alpha_k, real or complex beta_k != 0, N <= 64), d in {2, 3}, and lam scalar or an array."""
    d, N = draw(st.sampled_from([2, 3])), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = rng.uniform(-2, 2, N)
    beta = rng.uniform(0.2, 2, N - 1) * rng.choice([-1.0, 1.0], N - 1)
    if draw(st.booleans()):
        beta = beta * np.exp(1j * rng.uniform(0, 2 * np.pi, N - 1))
    shape = draw(st.sampled_from([(), (3,), (2, 2)]))
    lam = rng.uniform(-4, 4, shape) + 1j * rng.uniform(0.01, 3, shape) * rng.choice([-1, 1], shape)
    return alpha, beta, d, complex(lam) if shape == () else lam


@st.composite
def long_chain_and_lambdas(draw):
    """A scalar chain of N <= 300 (real or complex beta_k), a Kronecker dimension d in {1, 2, 3},
    and an array of lam off the real axis."""
    N, d = draw(st.integers(1, 300)), draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = rng.uniform(-2, 2, N)
    beta = rng.uniform(0.2, 2, N - 1) * rng.choice([-1.0, 1.0], N - 1)
    if draw(st.booleans()):
        beta = beta * np.exp(1j * rng.uniform(0, 2 * np.pi, N - 1))
    shape = draw(st.sampled_from([(1,), (4,), (2, 3)]))
    lam = rng.uniform(-4, 4, shape) + 1j * rng.uniform(0.01, 3, shape) * rng.choice([-1, 1], shape)
    return alpha, beta, d, lam


@settings(max_examples=30)
@given(long_chain_and_lambdas())
def test_scalar_chain_routes_over_many_levels(case):
    """An array lam gives the bits of the scalar calls, stacked, and each value is the dense one."""
    alpha, beta, d, lam = case
    J = kronecker(alpha, beta, d)
    w, V = np.linalg.eigh(BlockJacobi.of(alpha, beta).dense())  # dense_m of the scalar chain, for every lam
    for route in (m_resolvent, m_cf):
        got = route(J, lam)
        assert got.shape == lam.shape + (d, d)
        stacked = np.array([route(J, complex(one)) for one in lam.ravel()]).reshape(got.shape)
        assert np.array_equal(got, stacked), route.__name__
        for one, M in zip(lam.ravel(), got.reshape(-1, d, d)):
            want = np.sum(np.abs(V[0]) ** 2 / (w - one))
            assert np.array_equal(M, M[0, 0] * np.eye(d))
            assert abs(M[0, 0] - want) <= route_tol(want, one), route.__name__


class TestKroneckerReduction:
    """J = j (x) I_d is evaluated through its scalar chain j by both routes."""

    @settings(max_examples=25)
    @given(kronecker_and_lambda())
    def test_routes_are_the_scalar_chains_times_identity(self, case):
        alpha, beta, d, lam = case
        J, j = kronecker(alpha, beta, d), BlockJacobi.of(alpha, beta)
        for route in (m_resolvent, m_cf):
            got = route(J, lam)
            assert np.array_equal(got, route(j, lam) * np.eye(d)), route.__name__
            for one, M in zip(np.ravel(lam), got.reshape(-1, d, d)):
                want = dense_m(J, one)
                assert np.max(np.abs(M - want)) <= route_tol(want, one), route.__name__

    @pytest.mark.parametrize("nudge", ["ulp-on-a-diagonal", "tiny-off-diagonal"])
    def test_a_near_kronecker_input_takes_the_block_path(self, nudge, monkeypatch):
        rng = np.random.default_rng(4)
        alpha, beta = rng.uniform(-1, 1, 6), rng.uniform(0.5, 1.5, 5)
        J = kronecker(alpha, beta, 3)
        a, b = J.a.copy(), J.b.copy()
        if nudge == "ulp-on-a-diagonal":
            a[2, 1, 1] = np.nextafter(a[2, 1, 1].real, np.inf)
        else:
            b[1, 0, 2] = 1e-300
        near = BlockJacobi.of(a, b)
        solve, calls = np.linalg.solve, []

        def counted(A, B):
            calls.append(A.shape[-1])
            return solve(A, B)

        monkeypatch.setattr(np.linalg, "solve", counted)
        lam = 0.3 + 0.7j
        for route in (m_resolvent, m_cf):
            route(J, lam)
            assert calls == [], route.__name__  # the scalar chain divides
            want = dense_m(near, lam)
            assert np.max(np.abs(route(near, lam) - want)) <= route_tol(want, lam), route.__name__
            assert calls and set(calls) == {3}, route.__name__  # LAPACK on 3 x 3 blocks
            calls.clear()

    def test_poles_are_the_scalar_chains(self):
        # eigenvalues -sqrt(2), 0, sqrt(2): 0 is a singular pivot, sqrt(2) shows only in the residual
        for lam in (0.0, 1.0, math.sqrt(2)):
            for route in (m_resolvent, m_cf):
                try:
                    want, error = route(build_Jhat0(1, 3), lam), None
                except PoleError as exc:
                    error = str(exc)
                for d in (2, 3):
                    if error is None:
                        assert np.array_equal(route(build_Jhat0(d, 3), lam), want * np.eye(d))
                    else:
                        with pytest.raises(PoleError) as raised:
                            route(build_Jhat0(d, 3), lam)
                        assert str(raised.value) == error  # j's guard, j's residual
        with pytest.raises(PoleError, match="residual 2.500e-01"):
            m_resolvent(build_Jhat0(3, 3), math.sqrt(2))

    def test_one_call_of_each_public_name_per_call(self, monkeypatch):
        # a wrapper on the module attribute, as a tracer installs, must not see the reduction re-enter it
        seen = []
        for name in ("m_resolvent", "m_cf"):
            def spy(J, lam, route=getattr(jacobi, name), name=name):
                seen.append(name)
                return route(J, lam)

            monkeypatch.setattr(jacobi, name, spy)
        for J in (build_Jhat0(3, 8), build_J0(2, 8), random_jacobi(1, 2, 8), build_Jhat0(1, 8)):
            jacobi.m_resolvent(J, 1j)
            jacobi.m_cf(J, np.array([1j, -2j]))
        assert seen == ["m_resolvent", "m_cf"] * 4


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

    def test_blocks_are_read_only(self):
        # the routes keep the Kronecker test of the first call; a write would leave it stale
        J = build_Jhat0(3, 4)
        m_resolvent(J, 1j)
        for blocks in (J.a, J.b):
            with pytest.raises(ValueError, match="read-only"):
                blocks[0, 0, 1] = 0.5

    @pytest.mark.parametrize("d", [1, 3])
    def test_lambda_independent_stacks_are_read_only(self, d):
        # the routes keep them for the life of J, as they keep a and b
        J = random_jacobi(6, d, 5)
        m_resolvent(J, 1j), m_cf(J, 1j)
        cached = [name for name, attr in vars(BlockJacobi).items() if isinstance(attr, functools.cached_property)]
        stacks = {name: getattr(J, name) for name in cached if isinstance(getattr(J, name), np.ndarray)}
        used = {"_diag", "_couplings", "_weights"} if d == 1 else {"_b_adj", "_cr_rows", "_cf_rhs", "_cf_b_adj", "_residual_rows"}
        assert used <= set(stacks)
        for name, stack in stacks.items():
            with pytest.raises(ValueError, match="read-only"):
                stack[(0,) * stack.ndim] = 0.5

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
