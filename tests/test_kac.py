import math

import numpy as np
import pytest

from nevtrans.errors import DegenerateStepError, OutOfRangeError
from nevtrans.kac import (
    StepHamiltonian,
    evaluate_H,
    gammahat_hamiltonian,
    hamiltonian_H0,
    hamiltonian_Hn,
    kac_algorithm,
)

COEFF_SETS = [
    ([1.0] + [0.0] * 20, [1.0] * 21),
    ([0.5, -0.3, 0.2, 0.0, -0.1] + [0.0] * 16, [1.2, 0.8, 1.0, 0.9, 1.1] + [1.0] * 16),
    ([0.0] * 21, [1.0] * 21),
]


class TestKacAlgorithm:
    def test_free_schroedinger_coefficients(self):
        m = 52
        H = kac_algorithm([0.0] * m, [1.0] * m, m)
        assert np.max(np.abs(H.lengths() - 1.0)) < 1e-12
        for j in range(51):
            assert abs(H.thetas[j] - (j + 1) * math.pi / 2) < 1e-12

    def test_a0_equals_one_step(self):
        H = kac_algorithm([1.0, 0.0, 0.0], [1.0] * 3, 4)
        assert abs(H.thetas[1] - 5 * math.pi / 4) < 1e-12
        assert abs(H.lengths()[1] - 2.0) < 1e-12
        assert abs(H.thetas[2] - 3 * math.pi / 2) < 1e-12

    def test_first_interval_universal(self):
        for a, b in COEFF_SETS:
            H = kac_algorithm(a, b, 8)
            first = evaluate_H(H, 0.5)
            assert np.max(np.abs(first - np.array([[0.0, 0.0], [0.0, 1.0]]))) < 1e-12

    def test_theta_strictly_monotone_within_pi(self):
        for a, b in COEFF_SETS:
            H = kac_algorithm(a, b, 15)
            for t0, t1 in zip(H.thetas, H.thetas[1:]):
                assert t0 < t1 < t0 + math.pi

    def test_breakpoints_diverge(self):
        eps = 0.01
        for a, b in COEFF_SETS:
            for m in (5, 10, 20):
                H = kac_algorithm(a, b, m)
                assert H.t_end > m * eps

    def test_degenerate_step(self):
        with pytest.raises(DegenerateStepError):
            kac_algorithm([1e20], [1.0], 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            kac_algorithm([0.0], [1.0], 0)
        with pytest.raises(ValueError):
            kac_algorithm([0.0], [-1.0], 2)
        with pytest.raises(ValueError):
            kac_algorithm([0.0], [1.0], 5)  # not enough coefficients

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            kac_algorithm([float("nan"), 0.0], [1.0, 1.0], 3)
        with pytest.raises(ValueError):
            kac_algorithm([0.0, 0.0], [1.0, float("inf")], 3)


class TestEvaluateH:
    def test_axis_angles(self):
        H = StepHamiltonian.of([0.0, 1.0, 2.0, 3.0], [math.pi / 2, math.pi, math.pi / 4])
        assert np.max(np.abs(evaluate_H(H, 0.5) - np.array([[0, 0], [0, 1.0]]))) < 1e-15
        assert np.max(np.abs(evaluate_H(H, 1.5) - np.array([[1.0, 0], [0, 0]]))) < 1e-15
        assert np.max(np.abs(evaluate_H(H, 2.5) - np.full((2, 2), 0.5))) < 1e-15

    def test_trace_normed_rank_one(self):
        H = kac_algorithm(*COEFF_SETS[1][:2], 12)
        for t in np.linspace(0.0, H.t_end - 1e-9, 50):
            M = evaluate_H(H, t)
            assert abs(np.trace(M) - 1.0) < 1e-15
            assert abs(np.linalg.det(M)) < 1e-15
            assert np.linalg.eigvalsh(M).min() > -1e-15

    def test_out_of_range(self):
        H = hamiltonian_H0(3)
        with pytest.raises(OutOfRangeError):
            evaluate_H(H, 3.0)
        with pytest.raises(OutOfRangeError):
            evaluate_H(H, -0.1)


class TestHamiltonianH0:
    def test_alternating_values(self):
        H = hamiltonian_H0(4)
        assert np.max(np.abs(evaluate_H(H, 0.5) - np.diag([0.0, 1.0]))) < 1e-15
        assert np.max(np.abs(evaluate_H(H, 1.5) - np.diag([1.0, 0.0]))) < 1e-15
        assert np.max(np.abs(evaluate_H(H, 2.5) - np.diag([0.0, 1.0]))) < 1e-15

    def test_matches_kac_output(self):
        m = 30
        H1 = hamiltonian_H0(m)
        H2 = kac_algorithm([0.0] * m, [1.0] * m, m)
        assert np.array_equal(H1.breakpoints, H2.breakpoints)
        assert np.max(np.abs(np.array(H1.thetas) - np.array(H2.thetas))) < 1e-12


class TestHamiltonianHn:
    def test_fixed_hamiltonian(self):
        H0 = hamiltonian_H0(10)
        out = hamiltonian_Hn(H0, 1)
        expected = hamiltonian_H0(11)
        assert list(out.breakpoints) == list(expected.breakpoints)
        assert list(out.thetas) == list(expected.thetas)

    def test_prefix_property(self):
        for a, b in COEFF_SETS[:2]:
            H = kac_algorithm(a, b, 10)
            for n in range(1, 11):
                Hn = hamiltonian_Hn(H, n)
                H0 = hamiltonian_H0(n + 1)
                assert list(Hn.breakpoints[: n + 2]) == list(H0.breakpoints)
                assert list(Hn.thetas[: n + 1]) == list(H0.thetas)

    def test_two_path_equality(self):
        for a, b in COEFF_SETS[:2]:
            H = kac_algorithm(a, b, 10)
            for n in range(1, 9):
                Hn = hamiltonian_Hn(H, n)
                shifted = kac_algorithm([0.0] * n + list(a), [1.0] * n + list(b), 10 + n)
                th1 = np.array(Hn.thetas)
                bp1 = np.array(Hn.breakpoints)
                assert np.max(np.abs(th1 - np.array(shifted.thetas)[: len(th1)])) <= 1e-12
                assert np.max(np.abs(bp1 - np.array(shifted.breakpoints)[: len(bp1)])) <= 1e-12

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            hamiltonian_Hn(hamiltonian_H0(3), 0)


class TestGammahatHamiltonian:
    def test_fixed_point(self):
        H0 = hamiltonian_H0(7)
        out = gammahat_hamiltonian(H0)
        expected = hamiltonian_H0(8)
        assert list(out.breakpoints) == list(expected.breakpoints)
        assert list(out.thetas) == list(expected.thetas)

    def test_equals_shift_by_one(self):
        for a, b in COEFF_SETS[:2]:
            H = kac_algorithm(a, b, 9)
            g = gammahat_hamiltonian(H)
            h1 = hamiltonian_Hn(H, 1)
            assert list(g.breakpoints) == list(h1.breakpoints)
            assert list(g.thetas) == list(h1.thetas)

    def test_first_two_intervals(self):
        H = kac_algorithm(*COEFF_SETS[0][:2], 6)
        out = gammahat_hamiltonian(H)
        assert abs(out.thetas[0] - math.pi / 2) < 1e-15
        assert abs(out.thetas[1] - math.pi) < 1e-15


class TestStepHamiltonian:
    def test_json_round_trip(self):
        H = kac_algorithm(*COEFF_SETS[1][:2], 8)
        H2 = StepHamiltonian.from_json(H.to_json())
        assert H.breakpoints == H2.breakpoints
        assert H.thetas == H2.thetas

    def test_validation(self):
        with pytest.raises(ValueError):
            StepHamiltonian.of([0.0, 1.0], [0.0])  # first angle not pi/2
        with pytest.raises(ValueError):
            StepHamiltonian.of([0.0, 1.0, 0.5], [math.pi / 2, math.pi])  # not increasing
        with pytest.raises(ValueError):
            StepHamiltonian.of([1.0, 2.0], [math.pi / 2])  # does not start at 0
        with pytest.raises(ValueError):
            StepHamiltonian.of([0.0, 1.0], [math.pi / 2, math.pi])  # length mismatch

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            StepHamiltonian.of([0.0, float("nan")], [math.pi / 2])
        with pytest.raises(ValueError):
            StepHamiltonian.of([0.0, 1.0, 2.0], [math.pi / 2, float("nan")])

    def test_accessors(self):
        H = hamiltonian_H0(5)
        assert H.m == 5
        assert H.t_end == 5.0
        assert np.array_equal(H.lengths(), np.ones(5))
