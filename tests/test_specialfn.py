import math

import mpmath
import numpy as np
import pytest

from nevtrans.errors import CutError
from nevtrans.jacobi import quadrature_m0
from nevtrans.specialfn import CUT_TOL, m0_gamma, m0_gammahat, sqrt_offcut


def random_offcut_points(seed, count, c, margin=1e-6):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        lam = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(lam.imag) > margin or abs(lam.real) > c + margin:
            pts.append(lam)
    return pts


class TestSqrtOffcut:
    def test_at_2i_cut1(self):
        assert abs(sqrt_offcut(2j, 1.0) - 1j * math.sqrt(5)) < 1e-14

    def test_real_point_beyond_cut(self):
        val = sqrt_offcut(3.0 + 0j, 1.0)
        assert abs(val - math.sqrt(8)) < 1e-14
        assert val.imag == 0.0

    def test_at_2i_cut2(self):
        assert abs(sqrt_offcut(2j, 2.0) - 2j * math.sqrt(2)) < 1e-14

    def test_cut_rejection(self):
        with pytest.raises(CutError):
            sqrt_offcut(0.5 + 0j, 1.0)
        with pytest.raises(CutError):
            sqrt_offcut(0.5 + 1e-13j, 1.0)
        with pytest.raises(CutError):
            sqrt_offcut(1.0 + 1e-13j, 1.0)
        with pytest.raises(CutError):  # one cut point fails the whole array
            sqrt_offcut(np.array([[2j, 1.5], [0.5, -1j]]), 1.0)

    def test_scalar_and_array_cut_tests_agree_at_the_boundary(self):
        # a scalar lam is tested in Python arithmetic, an array in numpy's; at +-c + i y the
        # distance to the cut is exactly y, so the three offsets straddle CUT_TOL
        offsets = [np.nextafter(CUT_TOL, 0.0), CUT_TOL, np.nextafter(CUT_TOL, 1.0)]
        outcomes = []
        for c in (1.0, 2.0):
            for lam in [complex(re, s * y) for re in (-c, c) for s in (1, -1) for y in offsets]:
                raised = []
                for arg in (lam, np.array([lam])):
                    try:
                        sqrt_offcut(arg, c)
                        raised.append(False)
                    except CutError:
                        raised.append(True)
                assert raised[0] == raised[1], (lam, c)
                outcomes.append(raised[0])
        assert outcomes.count(True) == 8 and outcomes.count(False) == 16  # only the offset below CUT_TOL

    def test_negative_real_side(self):
        val = sqrt_offcut(-3.0 + 0j, 1.0)
        # asymptotic-to-lambda branch is negative on the left real axis
        assert abs(val + math.sqrt(8)) < 1e-14

    def test_branch_consistency_squares(self):
        for c in (1.0, 2.0):
            for lam in random_offcut_points(3, 1000, c):
                sq = sqrt_offcut(lam, c)
                target = lam * lam - c * c
                assert abs(sq * sq - target) <= 1e-13 * (1.0 + abs(target))

    def test_symmetry_conjugation(self):
        for lam in random_offcut_points(4, 200, 1.0):
            assert abs(sqrt_offcut(np.conj(lam), 1.0) - np.conj(sqrt_offcut(lam, 1.0))) < 1e-14

    def test_upper_half_plane_sign(self):
        for lam in random_offcut_points(5, 200, 1.0):
            if lam.imag > 0:
                assert sqrt_offcut(lam, 1.0).imag > 0


@pytest.mark.parametrize("f", [lambda lam: sqrt_offcut(lam, 1.0), lambda lam: sqrt_offcut(lam, 2.0),
                               m0_gamma, m0_gammahat])
def test_lambda_array_matches_stacked_calls(f, lam_grid, stacked):
    # numpy's complex division and multiply may round the last bit unlike Python's
    lams = np.concatenate([lam_grid, [[3.0, -2.5, 1.5 - 1e-3j, 4.0]]])
    got, want = f(lams), stacked(f, lams)
    assert got.shape == lams.shape
    assert np.all(np.abs(got - want) <= 4e-16 * (1.0 + np.abs(want)))
    assert type(f(lams[0, 0])) is complex


class TestM0Gamma:
    def test_at_2i(self):
        # independent quadrature oracle plus the closed form i/sqrt(5)
        assert abs(m0_gamma(2j) - 1j / math.sqrt(5)) < 1e-14
        assert abs(m0_gamma(2j) - quadrature_m0(2j, 10_000, 1)) < 1e-10

    def test_asymptotic_normalization(self):
        y = 1e6
        assert abs(1j * y * m0_gamma(1j * y) + 1.0) < 1e-6

    def test_real_point(self):
        assert abs(m0_gamma(3.0 + 0j) + 1.0 / math.sqrt(8)) < 1e-14
        assert abs(m0_gamma(3.0 + 0j) - quadrature_m0(3.0 + 0j, 10_000, 1)) < 1e-10

    def test_square_identity(self):
        for lam in random_offcut_points(6, 300, 1.0):
            assert abs(m0_gamma(lam) ** 2 * (lam * lam - 1.0) - 1.0) < 1e-12

    def test_symmetry_and_sign(self):
        for lam in random_offcut_points(7, 300, 1.0):
            assert abs(m0_gamma(np.conj(lam)) - np.conj(m0_gamma(lam))) < 1e-14
            if lam.imag != 0:
                assert m0_gamma(lam).imag * lam.imag > 0


class TestM0Gammahat:
    def test_at_2i(self):
        assert abs(m0_gammahat(2j) - (math.sqrt(2) - 1) * 1j) < 1e-14
        assert abs(m0_gammahat(2j) - quadrature_m0(2j, 10_000, 2)) < 1e-10

    def test_at_1_plus_i(self):
        val = m0_gammahat(1 + 1j)
        assert abs(val - quadrature_m0(1 + 1j, 20_000, 2)) < 1e-7
        assert abs(val.real - (-0.2571)) < 1e-4
        assert abs(val.imag - 0.5291) < 1e-4

    def test_fixed_point_identity(self):
        for lam in random_offcut_points(8, 300, 2.0):
            m = m0_gammahat(lam)
            assert abs(m + 1.0 / (m + lam)) < 1e-12
            assert abs(m * m + lam * m + 1.0) < 1e-12

    def test_symmetry_and_sign(self):
        for lam in random_offcut_points(9, 300, 2.0):
            assert abs(m0_gammahat(np.conj(lam)) - np.conj(m0_gammahat(lam))) < 1e-13
            if lam.imag != 0:
                assert m0_gammahat(lam).imag * lam.imag > 0

    def test_asymptotic_normalization(self):
        y = 1e9
        assert abs(1j * y * m0_gammahat(1j * y) + 1.0) < 1e-15

    def test_matches_mpmath_far_from_the_cut(self):
        # (-lam + sqrt(lam^2 - 4))/2 cancels for |lam| >> 2: relative error 0.49 at 1e8 i, 237 at -2e9 + i
        rng = np.random.default_rng(16)
        lams = [1e4 + 1j, 1e8j, -2e9 + 1j, 2e9 - 1j, -1e9j]
        lams += [complex(r * np.exp(1j * t)) for r in 10.0 ** np.arange(10) for t in rng.uniform(-np.pi, np.pi, 6)]
        with mpmath.workdps(50):
            for lam in lams:
                z = mpmath.mpc(lam.real, lam.imag)
                want = complex((-z + mpmath.sqrt(z - 2) * mpmath.sqrt(z + 2)) / 2)
                assert abs(m0_gammahat(lam) - want) <= 1e-15 * abs(want), lam

    def test_finite_near_the_float_maximum(self):
        # lam + sqrt(lam^2 - 4) overflows there (NaN at 1e308 + 1e308i); m0 ~ -1/lam is subnormal
        lams = [1e308 + 1e308j, -1e308 + 1e308j, 1e308 - 1e308j, 1e308 + 1j, 1e308j, -1.5e308 - 0.5j]
        with mpmath.workdps(50):
            for lam in lams:
                z = mpmath.mpc(lam.real, lam.imag)
                want = complex(-2 / (z + mpmath.sqrt(z - 2) * mpmath.sqrt(z + 2)))
                got = m0_gammahat(lam)
                assert got == m0_gammahat(np.array([lam]))[0]
                assert abs(got - want) <= 1e-15 * abs(want), lam
