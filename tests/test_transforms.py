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
from nevtrans.specialfn import m0_gamma, m0_gammahat
from nevtrans.transforms import IterationTrace, gamma, gamma_hat, iterate_gamma_hat


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
        with pytest.raises(np.linalg.LinAlgError):
            gamma(np.zeros((2, 2)), 2j)

    def test_ill_conditioned_warning(self):
        M = np.diag([1.0, 1e-14])
        with pytest.warns(RuntimeWarning):
            gamma(M, 2j)

    def test_lambda_pm_one_rejected(self):
        with pytest.raises(ValueError):
            gamma(np.eye(1), 1.0 + 0j)

    def test_lambda_near_pm_one_rejected(self):
        for lam in (1.0 + 1e-17j, -1.0 - 1e-13, -1.0 + 5e-13j):
            with pytest.raises(ValueError):
                gamma(np.eye(1), lam)


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
        with pytest.raises(np.linalg.LinAlgError):
            gamma_hat(np.array([[-lam]]), lam)
        with pytest.raises(np.linalg.LinAlgError):  # one singular shift fails the whole array
            gamma_hat(np.array([[[0.0]], [[-lam]]]), np.array([1j, lam]))
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):  # invertible, but the inverse overflows
            gamma_hat(np.array([[-lam + 1e-310]]), lam)

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


@settings(max_examples=50, derandomize=True, deadline=None)
@given(nevanlinna_values(min_im=1.0))
def test_gamma_hat_is_a_contraction_beyond_the_unit_strip(case):
    # Im(M + lam) is at least Im lam in modulus, so ||(M + lam)^-1|| <= 1/|Im lam|, and
    # gamma_hat(M1) - gamma_hat(M2) = (M1 + lam)^-1 (M1 - M2) (M2 + lam)^-1
    lam, M1, M2 = case
    y = abs(lam.imag)
    G1, G2 = gamma_hat(M1, lam), gamma_hat(M2, lam)
    assert np.linalg.norm(G1, 2) <= 1.0 / y + 1e-12
    assert np.linalg.norm(G1 - G2, 2) <= np.linalg.norm(M1 - M2, 2) / (y * y) + 1e-12


@settings(max_examples=50, derandomize=True, deadline=None)
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
            bound = 1.0 / lam.imag**2 + 1e-10
            for k, ratio in enumerate(trace.ratios):
                if trace.residuals[k + 1] < 1e-14:
                    break
                assert ratio <= bound

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
        F = random_nevanlinna(d, d, 6)
        got = iterate_gamma_hat(F, lam_grid, 6)
        traces = stacked(lambda lam: np.array(iterate_gamma_hat(F, lam, 6).values), lam_grid)
        assert np.array_equal(np.moveaxis(got.values, 0, -3), traces)
        # residuals are distances to the closed-form fixed point, which numpy may round differently
        want = stacked(lambda lam: np.array(iterate_gamma_hat(F, lam, 6).residuals), lam_grid)
        assert np.all(np.abs(np.moveaxis(got.residuals, 0, -1) - want) <= 4e-16 * (1.0 + np.abs(traces).max()))
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
    def test_csv_format(self):
        trace = iterate_gamma_hat(RealizedFunction.zero(1), 2j, 4)
        text = trace.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,re_value00,im_value00,residual,ratio"
        assert len(lines) == 5
        row = lines[2].split(",")
        assert int(row[0]) == 2
        assert abs(float(row[2]) - 0.4) < 1e-15

    def test_csv_needs_a_scalar_lambda(self):
        trace = iterate_gamma_hat(RealizedFunction.zero(1), np.array([2j, 1 + 3j]), 4)
        with pytest.raises(ValueError, match="scalar"):
            trace.to_csv()

    def test_lengths_consistent(self):
        trace = iterate_gamma_hat(RealizedFunction.zero(1), 2j, 7)
        assert len(trace.values) == len(trace.residuals) == 7
        assert len(trace.ratios) == 6
        assert all(r >= 0 for r in trace.residuals)

    def test_empty_trace_type(self):
        t = IterationTrace(lam=2j)
        assert t.values == [] and t.residuals == [] and t.ratios == []
