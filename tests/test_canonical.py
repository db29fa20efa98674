import math

import numpy as np
import pytest

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
        est = weyl_disk(hamiltonian_H0(70), 2j, 60.0)
        assert abs(est.center - m0_gammahat(2j)) < 1e-6
        assert est.radius < 1e-6

    def test_radius_monotone(self):
        H = hamiltonian_H0(50)
        r = [weyl_disk(H, 2j, float(T)).radius for T in (10, 20, 40)]
        assert r[0] > r[1] > r[2]

    def test_disk_membership(self):
        H = hamiltonian_H0(50)
        m0 = m0_gammahat(2j)
        for T in (4, 10, 20, 40):
            est = weyl_disk(H, 2j, float(T))
            assert est.contains(m0)

    def test_nesting(self):
        H = hamiltonian_H0(50)
        prev = None
        for T in range(4, 44, 4):
            est = weyl_disk(H, 2j, float(T))
            if prev is not None:
                assert abs(est.center - prev.center) <= prev.radius - est.radius + 1e-10
            prev = est

    def test_line_case_at_T0(self):
        # nothing propagated: the boundary slopes map onto a line, not a circle
        est = weyl_disk(hamiltonian_H0(3), 2j, 0.0)
        assert est.radius == canonical.RADIUS_LINE and not est.converged
        assert est.center == 0

    def test_entries_beyond_the_square_root_of_the_float_range(self):
        # the entries stay finite while their products overflow
        est = weyl_disk(hamiltonian_H0(600), 2j, 450.0)
        assert abs(est.center - m0_gammahat(2j)) < 1e-12
        assert est.radius == 0.0 and est.converged
        # entries that overflow themselves are rejected, not read out
        with pytest.raises(ArithmeticError, match="not finite"):
            _propagator(hamiltonian_H0(3000), 0.1 + 5j, 3000.0)

    def test_requires_breakpoint(self):
        with pytest.raises(OutOfRangeError):
            weyl_disk(hamiltonian_H0(10), 2j, 2.5)

    def test_requires_nonreal_lambda(self):
        with pytest.raises(ValueError):
            weyl_disk(hamiltonian_H0(10), 2.0 + 0j, 4.0)

    @pytest.mark.parametrize("m", [64, 512])
    def test_propagator_matches_matrix_product(self, m, decaying_coefficients):
        H = kac_algorithm(*decaying_coefficients(m, 7), m)
        for lam in (2j, 0.3 + 0.05j, 1 + 1j, -1.5 + 0.5j):
            ref = np.eye(2, dtype=complex)
            for j in range(m):
                ref = transfer_matrix(-H.thetas[j], H.breakpoints[j + 1] - H.breakpoints[j], lam) @ ref
            got = _propagator(H, lam, H.t_end)
            assert isinstance(got, np.ndarray) and got.shape == (2, 2) and got.dtype == complex
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_determinant_guard(self, monkeypatch, decaying_coefficients):
        H = kac_algorithm(*decaying_coefficients(64, 7), 64)
        monkeypatch.setattr(canonical, "DET_DRIFT_TOL", 0.0)
        with pytest.raises(ArithmeticError, match="determinant drift"):
            _propagator(H, 1 + 1j, H.t_end)
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
            _propagator(H, 0.05j, H.t_end)
        assert len(calls) == 16
        with pytest.raises(ArithmeticError, match="determinant drift"):
            _propagator(H, 0.05j, H.breakpoints[3])  # and after the last interval

    def test_propagator_symplectic(self):
        H = hamiltonian_H0(60)
        for lam in (2j, 1 + 1j, -0.5 + 2j):
            phi = _propagator(H, lam, 40.0)
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

    def test_not_converged_flag(self):
        est = m_canonical(hamiltonian_H0(3), 2j, 1e-12)
        assert not est.converged
        assert est.radius >= 1e-12

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            m_canonical(hamiltonian_H0(5), 2j, 0.0)


class TestEstimate:
    def test_aliases(self):
        est = WeylDiskEstimate(lam=2j, center=0.4j, radius=1e-8, truncation_T=16.0)
        assert est.contains(0.4j + 5e-9)
        assert not est.contains(0.4j + 1e-3)
