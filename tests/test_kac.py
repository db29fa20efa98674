import math

import numpy as np
import pytest

from nevtrans.errors import DegenerateStepError, OutOfRangeError
from nevtrans.kac import StepHamiltonian, evaluate_H, hamiltonian_H0, hamiltonian_Hn, kac_algorithm

COEFF_SETS = [
    ([1.0] + [0.0] * 20, [1.0] * 21),
    ([0.5, -0.3, 0.2, 0.0, -0.1] + [0.0] * 16, [1.2, 0.8, 1.0, 0.9, 1.1] + [1.0] * 16),
    ([0.0] * 21, [1.0] * 21),
]


def hamiltonian_Hn_per_angle(H, n):
    """Reference H_n with each angle shifted on its own by n accumulated quarter
    turns and each breakpoint by n; hamiltonian_Hn must match it bit for bit."""

    def quarter_turns(count, start=0.0):
        out, th = [], start
        for _ in range(count):
            th = th + math.pi / 2.0
            out.append(th)
        return out

    breakpoints = [float(j) for j in range(n + 1)] + [t + n for t in H.breakpoints[1:]]
    thetas = quarter_turns(n) + [quarter_turns(n, start=th)[-1] for th in H.thetas]
    return breakpoints, thetas


def kac_algorithm_reference(a, b, m):
    """The Kac loop as it read before it carried the last gap and its sine:
    each step recomputes sin(theta_j - theta_{j-1}) from the stored angles.
    kac_algorithm must give the same breakpoints and angles bit for bit."""
    a, b = [float(x) for x in a], [float(x) for x in b]
    thetas, lengths = [math.pi / 2.0], [1.0]
    theta_prev = 0.0
    for j in range(1, m):
        if j == 1:
            theta_next = math.atan(a[0]) + math.pi
        else:
            gap = thetas[-1] - theta_prev
            s = math.sin(gap)
            c = -a[j - 1] * lengths[-1] - math.cos(gap) / s
            theta_next = thetas[-1] + (math.pi / 2.0 - math.atan(c))
        gap_new = theta_next - thetas[-1]
        s_new = math.sin(gap_new)
        if abs(s_new) < 1e-14:
            raise DegenerateStepError(f"degenerate angle step at j={j}")
        l_next = 1.0 / (lengths[-1] * b[j - 1] ** 2 * s_new * s_new)
        theta_prev = thetas[-1]
        thetas.append(theta_next)
        lengths.append(l_next)
    return np.concatenate([[0.0], np.cumsum(lengths)]), np.array(thetas)


class TestKacAlgorithm:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_to_reference_loop(self, seed, decaying_coefficients):
        a, b = decaying_coefficients(2000, seed)
        cases = [(a, b, 2000)] + [(a, b, m) for a, b in COEFF_SETS for m in (1, 2, 3, 15, 22)]
        for a, b, m in cases:
            H = kac_algorithm(a, b, m)
            breakpoints, thetas = kac_algorithm_reference(a, b, m)
            assert H.breakpoints.tobytes() == breakpoints.tobytes()
            assert H.thetas.tobytes() == thetas.tobytes()

    def test_anderson_coefficients_degenerate_at_129(self, anderson_coefficients):
        a, b = anderson_coefficients
        for kac in (kac_algorithm, kac_algorithm_reference):
            with pytest.raises(DegenerateStepError, match="at j=129$"):
                kac(a, b, 200)
        H = kac_algorithm(a, b, 129)  # the intervals before the degenerate step
        assert H.thetas.tobytes() == kac_algorithm_reference(a, b, 129)[1].tobytes()

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
        for bad in (0.0, -0.0):  # zero is not positive, whichever its sign
            with pytest.raises(ValueError):
                kac_algorithm([0.0, 0.0], [1.0, bad], 3)
        assert len(kac_algorithm([], [], 1).thetas) == 1  # one interval needs no coefficients
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
        for n in range(1, 17):
            out = hamiltonian_Hn(H0, n)
            expected = hamiltonian_H0(10 + n)
            assert list(out.breakpoints) == list(expected.breakpoints)
            assert list(out.thetas) == list(expected.thetas)

    @pytest.mark.parametrize("source", ["jump", "mixed", "decaying-2000"])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 33])
    def test_bit_identical_to_per_angle_shift(self, source, n, decaying_coefficients):
        if source == "decaying-2000":
            H = kac_algorithm(*decaying_coefficients(2000, 3), 2000)
        else:
            H = kac_algorithm(*COEFF_SETS[source == "mixed"], 10)
        breakpoints, thetas = hamiltonian_Hn_per_angle(H, n)
        Hn = hamiltonian_Hn(H, n)
        assert list(Hn.breakpoints) == breakpoints
        assert list(Hn.thetas) == thetas
        assert Hn.breakpoints.dtype == Hn.thetas.dtype == np.float64

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
            for n in range(1, 17):
                Hn = hamiltonian_Hn(H, n)
                shifted = kac_algorithm([0.0] * n + list(a), [1.0] * n + list(b), 10 + n)
                th1 = np.array(Hn.thetas)
                bp1 = np.array(Hn.breakpoints)
                assert np.max(np.abs(th1 - np.array(shifted.thetas)[: len(th1)])) <= 1e-12
                assert np.max(np.abs(bp1 - np.array(shifted.breakpoints)[: len(bp1)])) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_kac_of_shifted_coefficients_at_length_2000(self, seed, n, decaying_coefficients):
        # angles near 3000 have ulps near 4.5e-13, below an absolute tolerance's reach;
        # measured at most 1, 3 and 8 ulps per angle and 1095 per breakpoint
        a, b = decaying_coefficients(2000, seed)
        Hn = hamiltonian_Hn(kac_algorithm(a, b, 2000), n)
        shifted = kac_algorithm([0.0] * n + a, [1.0] * n + b, 2000 + n)
        assert len(Hn.thetas) == len(shifted.thetas) == 2000 + n
        assert np.all(np.abs(Hn.thetas - shifted.thetas) <= 2 * n * np.spacing(shifted.thetas))
        assert np.all(np.abs(Hn.breakpoints - shifted.breakpoints) <= (2000 + n) * np.spacing(shifted.breakpoints))

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            hamiltonian_Hn(hamiltonian_H0(3), 0)


class TestGammahatHamiltonian:
    def test_fixed_point(self):
        H0 = hamiltonian_H0(7)
        out = hamiltonian_Hn(H0, 1)
        expected = hamiltonian_H0(8)
        assert list(out.breakpoints) == list(expected.breakpoints)
        assert list(out.thetas) == list(expected.thetas)

    def test_first_two_intervals(self):
        H = kac_algorithm(*COEFF_SETS[0][:2], 6)
        out = hamiltonian_Hn(H, 1)
        assert abs(out.thetas[0] - math.pi / 2) < 1e-15
        assert abs(out.thetas[1] - math.pi) < 1e-15


class TestStepHamiltonian:
    def test_json_round_trip(self):
        H = kac_algorithm(*COEFF_SETS[1][:2], 8)
        H2 = StepHamiltonian.from_json(H.to_json())
        assert np.array_equal(H.breakpoints, H2.breakpoints)
        assert np.array_equal(H.thetas, H2.thetas)
        assert H2.breakpoints.dtype == H2.thetas.dtype == np.float64

    def test_validation(self):
        with pytest.raises(ValueError):
            StepHamiltonian.of([0.0, 1.0], [0.0])  # first angle not pi/2
        with pytest.raises(ValueError):
            StepHamiltonian.of([0.0, 1.0, 0.5], [math.pi / 2, math.pi])  # not increasing
        with pytest.raises(ValueError):
            StepHamiltonian.of([1.0, 2.0], [math.pi / 2])  # does not start at 0
        with pytest.raises(ValueError):
            StepHamiltonian.of([0.0, 1.0], [math.pi / 2, math.pi])  # length mismatch
        with pytest.raises(ValueError, match="strictly increasing"):
            StepHamiltonian.of([0.0, 1.0, 1.0], [math.pi / 2, math.pi])  # equal neighbours
        with pytest.raises(ValueError, match="strictly increasing"):
            StepHamiltonian.of([0.0, 1.0, 2.0, 3.0, 2.5], [math.pi / 2, math.pi, 4.0, 5.0])  # decreasing tail

    def test_non_finite_rejected(self):
        for bad in (float("nan"), math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                StepHamiltonian.of([0.0, bad], [math.pi / 2])
            with pytest.raises(ValueError, match="finite"):
                StepHamiltonian.of([0.0, 1.0, 2.0], [math.pi / 2, bad])

    def test_accepted_forms(self):
        bp, th = [0.0, 1, 2.5], [math.pi / 2, 4]
        forms = [
            (bp, th),
            (tuple(bp), tuple(th)),
            (np.array(bp), np.array(th)),
            ((x for x in bp), (x for x in th)),
        ]
        for breakpoints, thetas in forms:
            H = StepHamiltonian.of(breakpoints, thetas)
            assert list(H.breakpoints) == [0.0, 1.0, 2.5]
            assert list(H.thetas) == [math.pi / 2, 4.0]
            assert H.breakpoints.dtype == H.thetas.dtype == np.float64

    def test_of_copies_its_input(self):
        bp, th = np.array([0.0, 1.0, 2.5]), np.array([math.pi / 2, 4.0])
        H = StepHamiltonian.of(bp, th)
        bp[1], th[1] = 7.0, 7.0
        assert list(H.breakpoints) == [0.0, 1.0, 2.5]
        assert list(H.thetas) == [math.pi / 2, 4.0]

    def test_fields_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-d"):
            StepHamiltonian(np.array([[0.0, 1.0]]), np.array([math.pi / 2]))
        with pytest.raises(ValueError, match="1-d"):
            StepHamiltonian(np.array([0.0, 1.0]), np.array([[math.pi / 2]]))

    def test_equality_is_identity(self):
        H = hamiltonian_H0(3)
        assert (H == H) is True
        assert (H == hamiltonian_H0(3)) is False

    def test_accessors(self):
        H = hamiltonian_H0(5)
        assert len(H.thetas) == 5
        assert H.t_end == 5.0
        assert np.array_equal(H.lengths(), np.ones(5))
