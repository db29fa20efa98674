import math

import mpmath
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
    """kac_algorithm as a plain loop: c_j = cot(theta_j - theta_{j-1}) and l_j one
    step at a time, each angle and breakpoint a running sum, each step checked as
    it is taken.  kac_algorithm must give the same breakpoints and angles, and
    stop at the same step, bit for bit.  The arctangents come from np.arctan on
    the whole array, as in kac_algorithm: math.atan may round differently."""
    a, b = [float(x) for x in a], [float(x) for x in b]
    cots, lengths = [], []
    c, length = 0.0, 1.0
    for j in range(1, m):
        c = -a[j - 1] * length - c
        length = (1.0 + c * c) / (length * b[j - 1] * b[j - 1])
        cots.append(c)
        lengths.append(length)
    atans = np.arctan(np.array(cots)).tolist()
    thetas, breakpoints, total = [math.pi / 2.0], [0.0, 1.0], 0.0
    for j in range(1, m):
        total += atans[j - 1]
        theta = (j + 1) * (math.pi / 2.0) - total
        gap, t = theta - thetas[-1], breakpoints[-1] + lengths[j - 1]
        if not (gap > 0.0 and abs(math.sin(gap)) >= 1e-14 and abs(cots[j - 1]) < 1e14 and breakpoints[-1] < t < math.inf):
            raise DegenerateStepError(f"degenerate angle step at j={j}")
        thetas.append(theta)
        breakpoints.append(t)
    return np.array(breakpoints), np.array(thetas)


def kac_oracle(a, b, m, dps=50):
    """Breakpoints and angles of the first m intervals as mpmath numbers at dps
    digits, from the angle form of the recursion: theta_1 = arctan(a_0) + pi,
    l_j = 1/(l_{j-1} b_{j-1}^2 sin^2(theta_j - theta_{j-1})) and
    theta_{j+1} = theta_j + pi/2 - arctan(-a_j l_j - cot(theta_j - theta_{j-1}))."""
    mp = mpmath.mp
    with mpmath.workdps(dps):
        thetas, lengths = [mp.pi / 2], [mp.mpf(1)]
        for j in range(1, m):
            if j == 1:
                theta = mpmath.atan(a[0]) + mp.pi
            else:
                c = -mp.mpf(a[j - 1]) * lengths[-1] - mpmath.cot(thetas[-1] - thetas[-2])
                theta = thetas[-1] + mp.pi / 2 - mpmath.atan(c)
            lengths.append(1 / (lengths[-1] * mp.mpf(b[j - 1]) ** 2 * mpmath.sin(theta - thetas[-1]) ** 2))
            thetas.append(theta)
        breakpoints = [mp.mpf(0)]
        for length in lengths:
            breakpoints.append(breakpoints[-1] + length)
    return breakpoints, thetas


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

    def test_anderson_coefficients_degenerate_at_127(self, anderson_coefficients):
        # the stored gap theta_127 - theta_126 is zero: the true gap, 2.3e-14, is below
        # an ulp of theta = 203.  The angles are exact to about an ulp here
        # (TestKacOracle); when each gap came from differences of cumulative angles,
        # they were a whole pi off by j = 128 and the stop read j = 129
        a, b = anderson_coefficients
        for kac in (kac_algorithm, kac_algorithm_reference):
            with pytest.raises(DegenerateStepError, match="at j=127$"):
                kac(a, b, 200)
        H = kac_algorithm(a, b, 127)  # the intervals before the degenerate step
        assert H.thetas.tobytes() == kac_algorithm_reference(a, b, 127)[1].tobytes()
        # the recursion itself gives out later: |c_j| first reaches 1/_SIN_TOL at
        # j = 152, as in a 60-digit run
        c, length = 0.0, 1.0
        for j in range(1, 200):
            c = -a[j - 1] * length - c
            length = (1.0 + c * c) / (length * b[j - 1] * b[j - 1])
            if abs(c) >= 1e14:
                break
        assert j == 152

    @pytest.mark.parametrize("b0", [1e200, 1e-200])
    def test_off_diagonal_whose_square_leaves_the_float_range(self, b0):
        # b^2 overflows (l_j rounds to zero) or underflows (l_j is not finite)
        for m in (2, 5):
            with pytest.raises(DegenerateStepError, match="at j=1$"):
                kac_algorithm([0.3, 0.0, 0.0, 0.0], [b0, 1.0, 1.0, 1.0], m)
        with pytest.raises(DegenerateStepError, match="at j=2$"):
            kac_algorithm([0.3, 0.0, 0.0], [1.0, b0, 1.0], 4)
        assert len(kac_algorithm([0.3], [b0], 1).thetas) == 1  # one interval reads no coefficient

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


class TestKacOracle:
    """kac_algorithm against a 50-digit run of the recursion: every breakpoint
    within 1e-14 relative, every angle within 2 ulps.  Measured: at most 2.3e-15
    and 1.32 ulps on the decaying data, 1.5e-15 and 1.26 ulps on the Anderson
    data; differences of cumulative angles gave 2.6e-13 and 8.4 ulps on the
    decaying data, and 6362 ulps on the Anderson data by m = 64."""

    @staticmethod
    def assert_near(H, oracle):
        breakpoints, thetas = oracle
        with mpmath.workdps(50):
            bp_err = max(abs(mpmath.mpf(x) - y) / y for x, y in zip(H.breakpoints.tolist()[1:], breakpoints[1:]))
            th_err = max(abs(mpmath.mpf(x) - y) / u for x, y, u in zip(H.thetas.tolist(), thetas, np.spacing(H.thetas).tolist()))
        assert bp_err <= 1e-14
        assert th_err <= 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_decaying_coefficients_at_length_2000(self, seed, decaying_coefficients):
        a, b = decaying_coefficients(2000, seed)
        self.assert_near(kac_algorithm(a, b, 2000), kac_oracle(a, b, 2000))

    def test_anderson_coefficients_up_to_the_last_stored_step(self, anderson_coefficients):
        a, b = anderson_coefficients
        self.assert_near(kac_algorithm(a, b, 127), kac_oracle(a, b, 127))


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
        # measured at most 1, 2 and 8 ulps per angle and 2, 3 and 4 per breakpoint
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
