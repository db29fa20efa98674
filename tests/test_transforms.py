import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevtrans.herglotz import (
    RealizedFunction,
    SampleSet,
    evaluate,
    is_psd_gram,
    random_contraction_resolvent,
    random_nevanlinna,
)
from nevtrans.specialfn import CUT_TOL, m0_gamma, m0_gammahat
from nevtrans.transforms import RESIDUAL_FLOOR, IterationTrace, gamma, gamma_hat, iterate_gamma_hat


class TestGamma:
    def test_fixed_point(self):
        for lam in (2j, 1.5 + 0.5j, -3 + 0j):
            M = m0_gamma(lam) * np.eye(3)
            assert np.max(np.abs(gamma(M, lam) - M)) < 1e-13

    def test_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) + 2 * np.eye(d)
            lam = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2))
            back = gamma(gamma(M, lam), lam)
            assert np.max(np.abs(back - M)) <= 1e-12 * (1 + np.max(np.abs(M)))

    def test_scalar_cross_value(self):
        lam = 2j
        Mval = np.array([[-lam / (lam * lam - 1.0)]])
        got = gamma(Mval, lam)
        assert abs(got[0, 0] - 1.0 / (Mval[0, 0] * (lam * lam - 1.0))) < 1e-15

    def test_singular_input(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for M, lam in ((np.zeros((2, 2)), 2j), (np.zeros((1, 1)), 2j),  # 1 x 1: no condition number
                           ([[0.0]], 2j), (0, 2), (np.zeros((4, 4))[1::2, ::3], 2j),  # list, int, a (2, 2) view
                           (np.zeros((2, 2))[:1, 1:], 2j), (np.zeros((6, 6))[::2, ::2], -1.5),  # (1, 1), 0 I_3 views
                           (np.array([[[1.0]], [[0.0]]]), np.array([2j, 3j])),  # one zero in an array
                           (np.zeros((3, 3)), 2j), (np.zeros((2, 3, 3)), np.array([2j, 3j]))):  # 0 I_3
                with pytest.raises(np.linalg.LinAlgError):
                    gamma(M, lam)

    def test_ill_conditioned_warning(self):
        M = np.diag([1.0, 1e-14])
        with pytest.warns(RuntimeWarning):
            gamma(M, 2j)

    def test_lambda_pm_one_rejected(self):
        with pytest.raises(ValueError):
            gamma(np.eye(1), 1.0 + 0j)

    def test_lambda_near_pm_one_rejected(self):
        for lam in (1.0 + 1e-17j, -1.0 - 1e-13, -1.0 + 5e-13j):
            for M in (np.eye(1), np.eye(3), np.eye(3)[None]):
                with pytest.raises(ValueError):
                    gamma(M, lam if M.ndim == 2 else np.array([lam]))

    def test_scalar_and_array_cut_tests_agree_at_the_boundary(self):
        # a scalar lam is tested in Python arithmetic, an array in numpy's; +-1 + i y lies
        # exactly y from +-1, so the imaginary offsets straddle CUT_TOL
        ys = [t * CUT_TOL for t in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0))]
        ys += [np.nextafter(CUT_TOL, 0.0), np.nextafter(CUT_TOL, 1.0)]
        outcomes = []
        for lam in [p + q for p in (-1.0, 1.0) for y in ys for q in (y, -y, 1j * y, -1j * y)]:
            raised = []
            for arg in (complex(lam), np.array([lam])):
                # 1 x 1, c I_3 and a list: at a scalar lam each takes the scalar entry
                for M in (np.eye(1), np.eye(3), [[1.0]]):
                    try:
                        gamma(np.multiply.outer(np.full(np.shape(arg), 2.0 + 0.5j), M), arg)
                        raised.append(False)
                    except ValueError:
                        raised.append(True)
            assert len(set(raised)) == 1, lam
            outcomes.append(raised[0])
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_multiple_of_the_identity_gives_the_one_by_one_value(self, d, lam_grid):
        _assert_one_by_one_on_the_diagonal(gamma, d, lam_grid)


def _assert_one_by_one_on_the_diagonal(f, d, lam_grid):
    """f(c I_d, lam) has f([[c]], lam)'s bits on the diagonal and +0.0 off it, at a scalar and
    an array lam, for c = m0(lam) and for a c with a -0.0 real part, also in a stack where
    every other row of lam's grid holds a matrix off the line C I_d."""
    for c in (m0_gammahat(lam_grid), np.full(lam_grid.shape, -0.0 + 0.7j)):
        for lam, cc in ((complex(lam_grid[0, 0]), c[0, 0]), (lam_grid, c)):
            one = f(np.asarray(cc)[..., None, None], lam)[..., 0, 0]
            got = f(np.multiply.outer(cc, np.eye(d)), lam)  # -0.0 off the diagonal where c has a negative part
            diag = np.diagonal(got, axis1=-2, axis2=-1)
            assert diag.tobytes() == np.repeat(np.asarray(one)[..., None], d, axis=-1).tobytes()
            off = got[..., ~np.eye(d, dtype=bool)]
            assert not np.any(off) and not np.signbit(off.real).any() and not np.signbit(off.imag).any()
        mixed = np.multiply.outer(c, np.eye(d))
        mixed[::2, :, 0, 1] = 0.25
        diag = np.diagonal(f(mixed, lam_grid)[1::2], axis1=-2, axis2=-1)
        assert diag.tobytes() == np.repeat(one[1::2, :, None], d, axis=-1).tobytes()


class TestGammaHat:
    def test_zero_input(self):
        got = gamma_hat(np.zeros((3, 3)), 2j)
        assert np.max(np.abs(got - 0.5j * np.eye(3))) < 1e-15

    def test_fixed_point(self):
        for lam in (2j, 1 + 1.5j, -0.5 - 2j):
            M = m0_gammahat(lam) * np.eye(2)
            assert np.max(np.abs(gamma_hat(M, lam) - M)) < 1e-13

    def test_norm_bound_on_nevanlinna_values(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            F = random_nevanlinna(seed, 2, 6)
            for _ in range(10):
                lam = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.3, 3))
                out = gamma_hat(evaluate(F, lam), lam)
                assert np.linalg.norm(out, 2) <= 1.0 / abs(lam.imag) + 1e-12

    def test_never_singular_on_nevanlinna_values(self):
        rng = np.random.default_rng(3)
        F = random_nevanlinna(7, 1, 4)
        for _ in range(10_000):
            lam = complex(rng.uniform(-5, 5), rng.choice([-1, 1]) * rng.uniform(1e-3, 5))
            gamma_hat(evaluate(F, lam), lam)  # must not raise

    def test_singular_shift_rejected(self):
        lam = 2j
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the failures raise no warning on the way
            with pytest.raises(np.linalg.LinAlgError):
                gamma_hat(np.array([[-lam]]), lam)
            with pytest.raises(np.linalg.LinAlgError):  # one singular shift fails the whole array
                gamma_hat(np.array([[[0.0]], [[-lam]]]), np.array([1j, lam]))
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):  # invertible, but the inverse overflows
                gamma_hat(np.array([[-lam + 1e-310]]), lam)
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                gamma_hat(np.array([[[0.0]], [[-lam + 1e-310]]]), np.array([1j, lam]))
            with pytest.raises(np.linalg.LinAlgError):  # c I_3 with c = -lam
                gamma_hat(-lam * np.eye(3), lam)
            with pytest.raises(np.linalg.LinAlgError):
                gamma_hat(np.array([0.0, -lam])[:, None, None] * np.eye(3), np.array([1j, lam]))
            for where in ((1, 1), (0, 1)):  # a NaN on or off the diagonal: no c I_3, and LAPACK's NaN inverse
                M = 0.5j * np.eye(3)
                M[where] = np.nan
                for Mval, z in ((M, lam), (M[None], np.array([lam]))):
                    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                        gamma_hat(Mval, z)

    def test_one_by_one_extremes_match_the_array_call_and_mpmath(self):
        # |M + lam| from 1e-305 to 1e305, both signs, along the real and the imaginary axis and one
        # diagonal; M + lam is exact, since lam cancels the component M carries besides x.  Past
        # (1e-300, 1e300) the scalar entry's reciprocal goes through herglotz._finite_inv
        ks = [-305] + list(range(-300, 301, 20)) + [305]
        xs = [s * u * 10.0**k for k in ks for s in (1, -1) for u in (1, 1j, 0.6 + 0.8j)]
        lams = np.array([1.5 if x.real == 0.0 else 1.5j for x in map(complex, xs)])
        with warnings.catch_warnings(), mpmath.workdps(50):
            warnings.simplefilter("error")
            # gamma takes M = x itself: lam^2 - 1 is 1.25 or -3.25 either way, exact in Python and numpy
            for f, M, inverse in ((gamma_hat, (np.array(xs) - lams)[:, None, None], lambda m, z: -1 / (m + z)),
                                  (gamma, np.array(xs)[:, None, None], lambda m, z: 1 / (m * (z * z - 1)))):
                got = f(M, lams)
                for Mk, lam, g in zip(M, lams, got):
                    assert np.array_equal(f(Mk, complex(lam)), g)  # one value at a scalar lam: the same bits
                    on_line = f(np.diag([Mk[0, 0]] * 3), complex(lam))  # c I_3: the same bits on the diagonal
                    assert on_line.tobytes() == np.diag([g[0, 0]] * 3).tobytes()
                    want = inverse(mpmath.mpc(Mk[0, 0]), mpmath.mpc(lam))
                    assert abs(mpmath.mpc(g[0, 0]) - want) <= 4e-16 * abs(want)

    def test_a_lambda_near_the_float_maximum_is_prescaled(self, stacked):
        # |Re x| + |Im x| overflowed inside numpy's division and LAPACK, which flushed
        # -(lam I)^{-1} = -(1 - i)/2e308 to zero at lam = 1e308 + 1e308i
        lams = np.array([[1e308 + 1e308j, -1e308 + 1e308j], [-1.5e308 - 5e307j, 0.5 + 2j]])
        with warnings.catch_warnings(), mpmath.workdps(30):
            warnings.simplefilter("error")
            for d in (1, 3):
                assert np.array_equal(gamma_hat(np.zeros((d, d)), 1e308 + 1e308j), (-5e-309 + 5e-309j) * np.eye(d))
                got = gamma_hat(np.zeros(lams.shape + (d, d)), lams)
                assert np.array_equal(got, stacked(lambda lam: gamma_hat(np.zeros((d, d)), lam), lams))
                for lam, g in zip(lams.ravel(), got.reshape(-1, d, d)):
                    want = complex(-1 / mpmath.mpc(lam))
                    assert abs(g[0, 0] - want) <= 4e-16 * abs(want) + 1e-323  # a subnormal's last place
            # a huge 1 x 1 value at a moderate lam: the division takes a quarter of M + lam
            assert gamma_hat(np.array([[1e308 + 1e308j]]), 0.5j)[0, 0] == -5e-309 + 5e-309j

    def test_one_by_one_values_call_no_lapack_inverse_or_svd(self, monkeypatch):
        # a 1 x 1 value is inverted by a division; np.linalg.norm(., 2) is a batched SVD, and
        # evaluate's Frobenius-norm residual guard is not counted
        called = []

        def spy(name):
            real = getattr(np.linalg, name)

            def call(*args, **kwargs):
                if name != "norm" or (args[1:2] or [kwargs.get("ord")])[0] == 2:
                    called.append(name)
                return real(*args, **kwargs)
            return call

        F1, F2, M = random_nevanlinna(1, 1, 4), random_nevanlinna(2, 2, 4), np.array([[0.3 - 0.2j]])
        for name in ("inv", "cond", "svd", "norm"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        gamma_hat(M, 0.5 + 1.5j)
        gamma(M, 0.5 + 1.5j)
        iterate_gamma_hat(F1, 0.5 + 1.5j, 5)
        # zero(3)'s value and m0 I_3 are c I_3, which runs as its 1 x 1 value c, at a scalar and an array lam
        for lam in (0.5 + 1.5j, np.array([0.5 + 1.5j, -2.0 - 0.3j])):
            M0 = np.multiply.outer(m0_gammahat(lam), np.eye(3))
            gamma_hat(np.zeros(M0.shape), lam)
            gamma_hat(M0, lam)
            gamma(M0, lam)
            iterate_gamma_hat(RealizedFunction.zero(3), lam, 5)
        assert called == []
        iterate_gamma_hat(F2, 0.5 + 1.5j, 5)  # the spy sees d > 1
        assert called == ["norm"]

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_multiple_of_the_identity_gives_the_one_by_one_value(self, d, lam_grid):
        _assert_one_by_one_on_the_diagonal(gamma_hat, d, lam_grid)
        _assert_one_by_one_on_the_diagonal(gamma_hat, d, np.full(lam_grid.shape, 1e308 + 1e308j))  # prescaled

    @pytest.mark.parametrize("d", [1, 3])
    def test_lambda_array_matches_stacked_calls(self, d, lam_grid, stacked):
        F = random_nevanlinna(d, d, 6)
        M = evaluate(F, lam_grid)
        got = gamma_hat(M, lam_grid)
        assert got.shape == lam_grid.shape + (d, d)
        assert np.array_equal(got, stacked(lambda lam: gamma_hat(evaluate(F, lam), lam), lam_grid))
        # gamma's lam^2 - 1 is a numpy product, which may round the last bit unlike Python's
        got, want = gamma(M, lam_grid), stacked(lambda lam: gamma(evaluate(F, lam), lam), lam_grid)
        assert np.all(np.abs(got - want) <= 4e-16 * (1.0 + np.abs(want)))
        assert gamma(M[0, 0], lam_grid[0, 0]).shape == gamma_hat(M[0, 0], lam_grid[0, 0]).shape == (d, d)
        # at a scalar lam, a list, a non-contiguous view, a real value and a real or integer lam
        # give the bits of the complex array call, and so does each matrix as c I_d; gamma's
        # scalar call keeps the bits of M^{-1} / (lam^2 - 1) as an array division by a Python complex
        wide = np.zeros((2 * d, 2 * d), dtype=complex)
        for m, lam in zip(M.reshape(-1, d, d), map(complex, lam_grid.ravel())):
            wide[::2, ::2] = m
            for f in (gamma_hat, gamma):
                want = f(m, lam)
                for form in (m.tolist(), wide[::2, ::2]):
                    assert f(form, lam).tobytes() == want.tobytes()
                real = m.real.copy()
                assert f(real, lam).tobytes() == f(real + 0j, lam).tobytes()
                for z in (lam.real, 2, -3):
                    assert f(m, z).tobytes() == f(m, complex(z)).tobytes()
                assert f(np.diag([m[0, 0]] * d), lam).tobytes() == np.diag([f(m[:1, :1], lam)[0, 0]] * d).tobytes()
            if d == 1:
                assert gamma(m, lam).tobytes() == ((1 / m) / (lam * lam - 1.0)).tobytes()
                assert gamma_hat(m[0, 0], lam).tobytes() == gamma_hat(m, lam).tobytes()  # a 0-d value


@st.composite
def nevanlinna_values(draw, min_im):
    """lam with min_im < |Im lam| <= 4 and the values at lam of two random_nevanlinna
    functions of one size."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 10))
    im = draw(st.floats(min_im, 4.0, exclude_min=True)) * draw(st.sampled_from([-1, 1]))
    lam = complex(draw(st.floats(-4.0, 4.0)), im)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
    return lam, *(evaluate(random_nevanlinna(seed, d, n), lam) for seed in seeds)


@settings(max_examples=50)
@given(nevanlinna_values(min_im=1.0))
def test_gamma_hat_is_a_contraction_beyond_the_unit_strip(case):
    # Im(M + lam) is at least Im lam in modulus, so ||(M + lam)^-1|| <= 1/|Im lam|, and
    # gamma_hat(M1) - gamma_hat(M2) = (M1 + lam)^-1 (M1 - M2) (M2 + lam)^-1
    lam, M1, M2 = case
    y = abs(lam.imag)
    G1, G2 = gamma_hat(M1, lam), gamma_hat(M2, lam)
    assert np.linalg.norm(G1, 2) <= 1.0 / y + 1e-12
    assert np.linalg.norm(G1 - G2, 2) <= np.linalg.norm(M1 - M2, 2) / (y * y) + 1e-12


@settings(max_examples=50)
@given(nevanlinna_values(min_im=0.1))
def test_gamma_is_an_involution(case):
    lam, M, _ = case
    back = gamma(gamma(M, lam), lam)
    assert np.linalg.norm(back - M, 2) <= 1e-14 * np.linalg.cond(M) * np.linalg.norm(M, 2)


class TestIterate:
    def test_hand_convergents(self):
        trace = iterate_gamma_hat(RealizedFunction.zero(1), 2j, 6)
        vals = [v[0, 0] for v in trace.values]
        assert abs(vals[0] - 0.5j) < 1e-15
        assert abs(vals[1] - 0.4j) < 1e-15
        assert abs(vals[2] - 0.5j / 1.2) < 1e-15
        assert abs(vals[3] - 0.41379310344827586j) < 1e-12
        assert trace.residuals[3] < 6e-4

    def test_ratio_bound(self):
        for lam in (2j, 1 + 1.5j, -1 - 2j):
            trace = iterate_gamma_hat(RealizedFunction.zero(2), lam, 15)
            assert 0.0 < trace.max_ratio <= 1.0 / lam.imag**2 + 1e-10

    def test_floor_reached(self):
        for seed in (0, 5):
            F = random_nevanlinna(seed, 1, 4)
            trace = iterate_gamma_hat(F, 2j, 30)
            assert trace.residuals[-1] <= 1e-14

    def test_small_grid_uniform(self):
        worst = 0.0
        for re in np.linspace(1, 2, 5):
            for im in np.linspace(1.5, 2.5, 5):
                trace = iterate_gamma_hat(RealizedFunction.zero(1), complex(re, im), 20)
                worst = max(worst, trace.residuals[-1])
        assert worst < 1e-10

    @pytest.mark.parametrize("d", [1, 3])
    def test_lambda_array_matches_stacked_calls(self, d, lam_grid, stacked):
        for F in (random_nevanlinna(d, d, 6), RealizedFunction.zero(d)):  # zero(3) iterates c I_3
            got = iterate_gamma_hat(F, lam_grid, 6)
            traces = stacked(lambda lam: np.array(iterate_gamma_hat(F, lam, 6).values), lam_grid)
            assert np.array_equal(np.moveaxis(got.values, 0, -3), traces)
            # residuals are distances to the closed-form fixed point, which numpy may round differently
            want = stacked(lambda lam: np.array(iterate_gamma_hat(F, lam, 6).residuals), lam_grid)
            assert np.all(np.abs(np.moveaxis(got.residuals, 0, -1) - want) <= 4e-16 * (1.0 + np.abs(traces).max()))
            for lam in map(complex, lam_grid.ravel()):  # a 1 x 1 residual: the modulus of the distance to m0 I_1
                tr = iterate_gamma_hat(F, lam, 6)
                if d == 1 or F.variant == "measure":
                    err = tr.values[:, :1, :1] - m0_gammahat(lam) * np.eye(1)
                    assert tr.residuals.tobytes() == np.abs(err[:, 0, 0]).tobytes()
            assert len(got.ratios) == 5 and got.ratios[0].shape == lam_grid.shape

    def test_input_validation(self):
        with pytest.raises(ValueError):
            iterate_gamma_hat(RealizedFunction.zero(1), 1.0 + 0j, 5)
        with pytest.raises(ValueError):
            iterate_gamma_hat(RealizedFunction.zero(1), np.array([2j, 1.0]), 5)
        with pytest.raises(ValueError):
            iterate_gamma_hat(RealizedFunction.zero(1), 2j, 0)


class TestFixedPointPowers:
    @staticmethod
    def residual(lam, k, d=1):
        """Deviation after k applications of gamma_hat to the fixed point itself."""
        start = m0_gammahat(lam) * np.eye(d)
        val = start
        for _ in range(k):
            val = gamma_hat(val, lam)
        return np.linalg.norm(val - start, 2)

    def test_power_one(self):
        assert self.residual(2j, 1) < 1e-14

    def test_power_seven(self):
        assert self.residual(1 + 1j, 7) < 1e-12

    def test_matrix_dimension(self):
        assert self.residual(2j, 3, d=4) < 1e-12


class TestClassClosure:
    def test_gamma_preserves_interval_class(self):
        # functions realized by selfadjoint contractions stay in the class
        # under the involution; checked through the dilation realization
        from nevtrans.herglotz import class_n0_interval_gram
        from nevtrans.realize import SubspaceRealization, bold_T

        rng = np.random.default_rng(6)
        for seed in range(5):
            F = random_contraction_resolvent(seed, 2, 6)
            R = SubspaceRealization.of(F.T, F.K)
            bT = bold_T(R)
            G = RealizedFunction.from_realization(bT.T, bT.M_basis)
            pts = [complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.3, 3)) for _ in range(6)]
            vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(6)]
            S = SampleSet.of(pts, vecs)
            assert is_psd_gram(class_n0_interval_gram(G, S))
            # and the dilation's m-function is gamma of the original
            for lam in (2j, 1.7 + 0.4j):
                got = evaluate(G, lam)
                want = gamma(evaluate(F, lam), lam)
                assert np.max(np.abs(got - want)) < 1e-10


class TestTrace:
    def test_lengths_consistent(self):
        trace = iterate_gamma_hat(RealizedFunction.zero(1), 2j, 7)
        assert len(trace.values) == len(trace.residuals) == 7
        assert len(trace.ratios) == 6
        assert all(r >= 0 for r in trace.residuals)

    def test_arrays_and_frozen(self, lam_grid):
        trace = iterate_gamma_hat(random_nevanlinna(2, 2, 6), lam_grid, 5)
        assert trace.values.shape == (5,) + lam_grid.shape + (2, 2)
        assert trace.residuals.shape == (5,) + lam_grid.shape
        assert trace.ratios.shape == (4,) + lam_grid.shape
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.values = trace.values[:1]

    def test_max_ratio_stops_where_the_residual_first_reaches_the_floor(self):
        floor = RESIDUAL_FLOOR
        # ratios 0.5, 0.25 count; 1e-16 reaches the floor, and rounding noise after it does not count
        residuals = np.array([1.0, 0.5, 0.125, 1e-16, 2 * floor, 1e-16])
        ratios = residuals[1:] / residuals[:-1]
        assert IterationTrace(2j, None, residuals, ratios).max_ratio == 0.5
        # a measurement, not a bound: a growing residual is reported
        assert IterationTrace(2j, None, np.array([1.0, 2.0, 1.0]), np.array([2.0, 0.5])).max_ratio == 2.0
        assert IterationTrace(2j, None, np.array([1.0, floor]), np.array([floor])).max_ratio == 0.0
        assert IterationTrace(2j, None, np.array([1.0]), np.zeros(0)).max_ratio == 0.0

    def test_max_ratio_per_lambda(self, lam_grid):
        trace = iterate_gamma_hat(random_nevanlinna(3, 2, 6), lam_grid, 40)
        got = trace.max_ratio
        assert got.shape == lam_grid.shape
        # the rule applied to each lambda's column of the trace on its own
        for i in np.ndindex(lam_grid.shape):
            steps = (slice(None),) + i
            assert got[i] == IterationTrace(lam_grid[i], None, trace.residuals[steps], trace.ratios[steps]).max_ratio

    def test_max_ratio_at_2i_lies_just_above_the_asymptotic_rate(self):
        # Gamma_hat'(M0) = M0^2, so the ratios settle at |M0(2i)|^2 = 0.1716; from the zero start the
        # largest one before the floor (0.1726) lies just above it
        rate = abs(m0_gammahat(2j)) ** 2
        ratio = iterate_gamma_hat(RealizedFunction.zero(1), 2j, 40).max_ratio
        assert rate <= ratio < rate + 2e-3
