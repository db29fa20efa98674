import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevtrans import canonical
from nevtrans.canonical import (
    WeylDiskEstimate,
    _propagator,
    m_canonical,
    transfer_matrix,
    weyl_disk,
)
from nevtrans.errors import OutOfRangeError
from nevtrans.jacobi import BlockJacobi, m_resolvent
from nevtrans.kac import hamiltonian_H0, hamiltonian_Hn, kac_algorithm
from nevtrans.specialfn import m0_gammahat

A0_ONE = ([1.0] + [0.0] * 60, [1.0] * 61)
MIXED = ([0.5, -0.3, 0.2, 0.0, -0.1] + [0.0] * 56, [1.2, 0.8, 1.0, 0.9, 1.1] + [1.0] * 56)


def _phi(H, lam, m):
    """The propagator over H's first m intervals, 2^k [[a, b], [c, d]] from _propagator's a, b, c, d and k."""
    a, b, c, d, k = _propagator(H, lam, m)
    return 2.0**k * np.array([[a, b], [c, d]])


class TestTransferMatrix:
    def test_vertical_angle(self):
        lam = 0.7 + 1.1j
        got = transfer_matrix(math.pi / 2, 1.0, lam)
        assert np.max(np.abs(got - np.array([[1.0, lam], [0.0, 1.0]]))) < 1e-15

    def test_horizontal_angle(self):
        lam = 0.7 + 1.1j
        got = transfer_matrix(0.0, 1.0, lam)
        assert np.max(np.abs(got - np.array([[1.0, 0.0], [-lam, 1.0]]))) < 1e-15

    def test_unit_determinant_and_small_lambda(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            theta = rng.uniform(0, 2 * math.pi)
            l = rng.uniform(0.1, 5)
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            M = transfer_matrix(theta, l, lam)
            scale = 1.0 + abs(M[0, 0] * M[1, 1]) + abs(M[0, 1] * M[1, 0])
            assert abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0] - 1.0) < 1e-14 * scale
            for th, z in ((theta, lam), (0.0, lam), (math.pi / 2, lam), (theta, 1j * lam.imag)):
                c, s = math.cos(th), math.sin(th)
                gen = np.array([[s * c, s * s], [-c * c, -c * s]])  # (-J) e e^T
                # equal values; only the sign of a zero entry may differ
                assert np.array_equal(transfer_matrix(th, l, z), np.eye(2, dtype=complex) + z * l * gen)
        assert np.max(np.abs(transfer_matrix(1.0, 1.0, 1e-300) - np.eye(2))) < 1e-299

    def test_length_validation(self):
        with pytest.raises(ValueError):
            transfer_matrix(0.0, 0.0, 1j)


class TestWeylDisk:
    def test_anchor_center(self):
        est = weyl_disk(hamiltonian_H0(70), 2j, 60)
        assert abs(est.center - m0_gammahat(2j)) < 1e-6
        assert est.radius < 1e-6

    def test_radius_monotone(self):
        H = hamiltonian_H0(50)
        r = [weyl_disk(H, 2j, m).radius for m in (10, 20, 40)]
        assert r[0] > r[1] > r[2]

    def test_disk_membership(self):
        H = hamiltonian_H0(50)
        m0 = m0_gammahat(2j)
        for m in (4, 10, 20, 40):
            est = weyl_disk(H, 2j, m)
            assert est.contains(m0)

    def test_nesting(self):
        H = hamiltonian_H0(50)
        prev = None
        for m in range(4, 44, 4):
            est = weyl_disk(H, 2j, m)
            if prev is not None:
                assert abs(est.center - prev.center) <= prev.radius - est.radius + 1e-10
            prev = est

    def test_line_case_at_T0(self):
        # nothing propagated: the boundary slopes map onto a line, not a circle
        est = weyl_disk(hamiltonian_H0(3), 2j, 0)
        assert est.radius == canonical.RADIUS_LINE and not est.converged
        assert est.center == 0

    def test_entries_beyond_the_square_root_of_the_float_range(self):
        # the entries stay finite while their products overflow
        est = weyl_disk(hamiltonian_H0(600), 2j, 450)
        assert abs(est.center - m0_gammahat(2j)) < 1e-12
        assert est.radius == 0.0 and est.converged
        # entries that overflow themselves are rejected, not read out
        with pytest.raises(ArithmeticError, match="not finite"):
            _propagator(hamiltonian_H0(3000), 0.1 + 5j, 3000)

    def test_requires_an_interval_count(self):
        H = hamiltonian_H0(10)
        with pytest.raises(TypeError):
            weyl_disk(H, 2j, 4.0)  # a time, even one at a breakpoint, is not a count
        for m in (-1, len(H.thetas) + 1):
            with pytest.raises(OutOfRangeError):
                weyl_disk(H, 2j, m)

    def test_requires_nonreal_lambda(self):
        with pytest.raises(ValueError):
            weyl_disk(hamiltonian_H0(10), 2.0 + 0j, 4)

    @pytest.mark.parametrize("m", [64, 512])
    def test_propagator_matches_matrix_product(self, m, decaying_coefficients):
        H = kac_algorithm(*decaying_coefficients(m, 7), m)
        for lam in (2j, 0.3 + 0.05j, 1 + 1j, -1.5 + 0.5j):
            ref = np.eye(2, dtype=complex)
            for j in range(m):
                ref = transfer_matrix(-H.thetas[j], H.breakpoints[j + 1] - H.breakpoints[j], lam) @ ref
            a, b, c, d, k = _propagator(H, lam, m)
            assert isinstance(k, int) and 0.5 <= max(abs(a), abs(b), abs(c), abs(d)) < 1.0
            got = 2.0**k * np.array([[a, b], [c, d]])
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_determinant_guard(self, monkeypatch, decaying_coefficients):
        H = kac_algorithm(*decaying_coefficients(64, 7), 64)
        monkeypatch.setattr(canonical, "DET_DRIFT_TOL", 0.0)
        with pytest.raises(ArithmeticError, match="determinant drift"):
            _propagator(H, 1 + 1j, len(H.thetas))
        monkeypatch.undo()
        # a transfer matrix with determinant (1 + 1e-6)^2 drifts past the
        # default tolerance at a small lambda, where the entries stay O(1);
        # the check first runs after 16 intervals
        calls = []

        def scaled(theta, l, lam):
            calls.append(theta)
            return (1 + 1e-6) * transfer_matrix(theta, l, lam)

        monkeypatch.setattr(canonical, "transfer_matrix", scaled)
        with pytest.raises(ArithmeticError, match="determinant drift"):
            _propagator(H, 0.05j, len(H.thetas))
        assert len(calls) == 16
        with pytest.raises(ArithmeticError, match="determinant drift"):
            _propagator(H, 0.05j, 3)  # and after the last interval

    def test_propagator_symplectic(self):
        H = hamiltonian_H0(60)
        for lam in (2j, 1 + 1j, -0.5 + 2j):
            phi = _phi(H, lam, 40)
            det = phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0]
            scale = max(1.0, abs(phi[0, 0] * phi[1, 1]) + abs(phi[0, 1] * phi[1, 0]))
            assert abs(det - 1.0) <= 1e-12 * scale


class TestMCanonical:
    def test_alternating_hamiltonian_2i(self):
        est = m_canonical(hamiltonian_H0(70), 2j, 1e-6)
        assert est.converged
        assert est.truncation_T <= 60.0
        assert abs(est.center - m0_gammahat(2j)) < 1e-6
        assert est.radius < 1e-6
        assert est.center.imag > 0  # orientation anchor

    def test_alternating_hamiltonian_1_plus_i(self):
        est = m_canonical(hamiltonian_H0(120), 1 + 1j, 1e-5)
        assert est.converged
        assert abs(est.center - m0_gammahat(1 + 1j)) < 1e-5

    def test_a0_one_schur_oracle(self):
        H = kac_algorithm(*A0_ONE, 40)
        lam = 2j
        oracle = -1.0 / (lam - 1.0 + m0_gammahat(lam))
        est = m_canonical(H, lam, 1e-6)
        assert est.converged
        assert abs(est.center - oracle) < 1e-6

    def test_consistency_with_jacobi_corpus(self):
        lam = 2j
        for a, b in (A0_ONE, MIXED):
            H = kac_algorithm(a, b, 45)
            est = m_canonical(H, lam, 1e-6)
            assert est.converged
            J = BlockJacobi.of([[[x]] for x in a[:50]], [[[x]] for x in b[:49]])
            m_jac = m_resolvent(J, lam)[0, 0]
            assert abs(est.center - m_jac) < 2e-6

    def test_hamiltonian_sequence_converges_to_fixed_point(self):
        H = kac_algorithm(*MIXED, 30)
        lam = 2j
        m0 = m0_gammahat(lam)
        est = m_canonical(hamiltonian_Hn(H, 12), lam, 1e-7)
        assert abs(est.center - m0) < 1e-4

    def test_radius_below_the_smallest_double(self):
        est = m_canonical(hamiltonian_H0(3000), 0.1 + 5j, 1e-300)
        assert abs(est.center - m0_gammahat(0.1 + 5j)) < 1e-12
        assert est.radius == 0.0 and est.converged

    @pytest.mark.parametrize("lam", [1j, 2j])
    def test_work_below_twice_the_intervals_needed(self, lam, monkeypatch, anderson_coefficients):
        # neighbouring interval lengths differ by up to 8.2e4 here: doubling the
        # time instead of the count would advance about one interval per level.
        # 127 intervals are all the fixture gives before its degenerate step
        H = kac_algorithm(*anderson_coefficients, 127)
        calls = []

        def counted(theta, l, z):
            calls.append(theta)
            return transfer_matrix(theta, l, z)

        monkeypatch.setattr(canonical, "transfer_matrix", counted)
        est = m_canonical(H, lam, 1e-8)
        needed = int(np.searchsorted(H.breakpoints, est.truncation_T))
        assert est.converged and needed < len(H.thetas)
        assert len(calls) < 2 * needed

    def test_not_converged_flag(self):
        est = m_canonical(hamiltonian_H0(3), 2j, 1e-12)
        assert not est.converged
        assert est.radius >= 1e-12

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            m_canonical(hamiltonian_H0(5), 2j, 0.0)


@st.composite
def decaying_chain_and_lambda(draw):
    """Scalar a_k = alpha U(-1, 1)/(1 + k)^2 and b_k = 1 + beta U(-1, 1)/(1 + k)^2 of
    length N in [2, 200], and lambda with Re in [-3, 3] and Im in [0.05, 3]."""
    N = draw(st.integers(2, 200))
    alpha, beta = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decay = 1.0 / (1.0 + np.arange(N)) ** 2
    a = alpha * rng.uniform(-1, 1, N) * decay
    b = 1.0 + beta * rng.uniform(-1, 1, N - 1) * decay[:-1]
    return a, b, complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.05, 3.0)))


@settings(max_examples=30)
@given(decaying_chain_and_lambda())
def test_jacobi_m_lies_in_the_weyl_disk_of_decaying_coefficients(case):
    # only for decaying coefficients: on random ones the radius leaves out a rounding
    # error that can exceed it (README, "Errors")
    a, b, lam = case
    N = len(a)
    H = kac_algorithm(a.tolist(), b.tolist(), N)
    m_J = m_resolvent(BlockJacobi.of(a, b), lam)[0, 0]
    for m in (1, N // 4, N // 2, N - 1):
        est = weyl_disk(H, lam, m)
        assert abs(m_J - est.center) <= est.radius + 1e-13 * (1.0 + abs(m_J)), m


class TestEstimate:
    def test_aliases(self):
        est = WeylDiskEstimate(lam=2j, center=0.4j, radius=1e-8, truncation_T=16.0)
        assert est.contains(0.4j + 5e-9)
        assert not est.contains(0.4j + 1e-3)
