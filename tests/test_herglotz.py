import json
import warnings

import numpy as np
import pytest

from nevtrans.errors import NotContractionError, PoleError, UnboundedLimitError
from nevtrans.herglotz import (
    RealizedFunction,
    SampleSet,
    _resolvent_solve,
    asymptotic_C,
    class_n0_interval_gram,
    evaluate,
    is_psd_gram,
    nevanlinna_gram,
    random_contraction_resolvent,
    random_nevanlinna,
)
from nevtrans.realize import SubspaceRealization, chain_A


def sample_points(seed, count, d, lo=0.3, hi=3.0):
    rng = np.random.default_rng(seed)
    pts = [complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(lo, hi)) for _ in range(count)]
    vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(count)]
    return SampleSet.of(pts, vecs)


class TestEvaluate:
    def test_scalar_resolvent(self):
        F = RealizedFunction.from_realization([[0.0]], [[1.0]])
        assert abs(evaluate(F, 1j)[0, 0] - 1j) < 1e-15

    def test_single_atom(self):
        F = RealizedFunction.from_measure([[0.0]], [[0.0]], [(0.0, [[1.0]])])
        assert abs(evaluate(F, 2j)[0, 0] - 0.5j) < 1e-15

    def test_two_point_partial_fractions(self):
        K = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        F = RealizedFunction.from_realization(np.diag([-1.0, 1.0]), K)
        assert abs(evaluate(F, 2j)[0, 0] - 0.4j) < 1e-15

    def test_pole_at_atom(self):
        F = RealizedFunction.from_measure([[0.0]], [[0.0]], [(1.5, [[1.0]])])
        for lam in (1.5 + 0j, np.array([2j, 1.5, -1j])):  # one pole fails the whole array
            with pytest.raises(PoleError):
                evaluate(F, lam)

    def test_pole_at_eigenvalue(self):
        F = RealizedFunction.from_realization(np.diag([-1.0, 1.0]), [[0.5], [0.5]])
        for lam in (1.0 + 0j, np.array([[2j, 1.0], [0.5j, -3j]])):
            with pytest.raises(PoleError):
                evaluate(F, lam)

    def test_derivative_pole_at_atom(self):
        F = RealizedFunction.from_measure([[0.0]], [[0.0]], [(1.5, [[1.0]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (1.5 + 0j, np.array([2j, 1.5, -1j])):
                with pytest.raises(PoleError):
                    F.derivative(lam)

    def test_derivative_pole_at_eigenvalue(self):
        F = RealizedFunction.from_realization(np.diag([-1.0, 1.0]), [[0.5], [0.5]])
        for lam in (1.0 + 0j, np.array([[2j, 1.0], [0.5j, -3j]])):
            with pytest.raises(PoleError):
                F.derivative(lam)

    def test_pole_guard_is_scaled_per_point(self):
        # a stack of right-hand sides, as in the derivative's second solve: a
        # large one at one lam must not hide a pole at another
        F = random_nevanlinna(0, 1, 4)
        pole = np.linalg.eigvalsh(F.T)[0]
        with pytest.raises(PoleError):
            _resolvent_solve(F.T, np.stack([F.K, 1e12 * F.K]), np.array([pole, 2j]))

    def test_non_finite_atom_rejected(self):
        with pytest.raises(ValueError):
            RealizedFunction.from_measure([[0.0]], [[0.0]], [(float("nan"), [[1.0]])])
        # validate=False waives the Nevanlinna invariants, not finiteness
        text = RealizedFunction.from_measure([[0.0]], [[0.0]], [(0.5, [[1.0]])]).to_json()
        for bad in (text.replace("0.5", "NaN"), text.replace("1.0", "Infinity")):
            with pytest.raises(ValueError):
                RealizedFunction.from_json(bad, validate=False)

    def test_conjugate_symmetry(self):
        for seed in range(5):
            F = random_nevanlinna(seed, 2, 5)
            lam = complex(0.3 * seed - 1, 0.7 + 0.1 * seed)
            V1 = evaluate(F, np.conj(lam))
            V2 = evaluate(F, lam).conj().T
            assert np.max(np.abs(V1 - V2)) < 1e-13

    def test_herglotz_property(self):
        rng = np.random.default_rng(21)
        for seed in range(10):
            F = random_nevanlinna(seed, 2, 6)
            for _ in range(20):
                lam = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.2, 3))
                M = evaluate(F, lam)
                imM = (M - M.conj().T) / 2j
                w = np.linalg.eigvalsh(np.sign(lam.imag) * imM)
                assert w.min() >= -1e-11

    @pytest.mark.parametrize("d", [1, 3])
    def test_lambda_array_matches_stacked_calls(self, d, lam_grid, stacked):
        F = random_nevanlinna(d, d, 6)
        for f in (lambda lam: evaluate(F, lam), F.derivative):
            got = f(lam_grid)
            assert got.shape == lam_grid.shape + (d, d)
            assert np.array_equal(got, stacked(f, lam_grid))
        # the measure variant divides in numpy, which may round the last bit unlike Python
        G = F.measure_form()
        for f in (lambda lam: evaluate(G, lam), G.derivative):
            got, want = f(lam_grid), stacked(f, lam_grid)
            assert got.shape == lam_grid.shape + (d, d)
            assert np.all(np.abs(got - want) <= 4e-16 * (1.0 + np.abs(want)))
            assert f(lam_grid[0, 0]).shape == (d, d)

    def test_solve_right_hand_sides_have_the_matrices_ndim(self, monkeypatch):
        # numpy < 2 reads a right-hand side with one axis fewer than the
        # matrices as a stack of vectors; the derivative's second solve takes
        # the first one's stack over lam
        solve = np.linalg.solve
        seen = []

        def checked(a, b):
            seen.append(np.ndim(a) == np.ndim(b))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked)
        F = random_nevanlinna(4, 2, 5)
        for lam in (1j, np.array([1j, 2 - 1j]), np.array([[1j], [-0.5j]])):
            evaluate(F, lam)
            F.derivative(lam)
        assert len(seen) == 9 and all(seen)


class TestStorage:
    @pytest.mark.parametrize("d", [1, 2])
    def test_equality_is_identity(self, d):
        for make in (
            lambda: RealizedFunction.zero(d),
            lambda: random_nevanlinna(1, d, 4),
            lambda: SampleSet.of([1j, 2j], np.ones((2, d))),
            lambda: SubspaceRealization.of(np.zeros((3, 3)), np.eye(3, d)),
            lambda: chain_A(np.eye(3, d), np.zeros((3, 3)), 2),
        ):
            F = make()
            assert (F == F) is True
            assert (F == make()) is False

    def test_atoms_are_stacks(self):
        F = RealizedFunction.from_measure(np.zeros((2, 2)), np.zeros((2, 2)), [(0.5, np.eye(2)), (-1, 2 * np.eye(2))])
        assert F.atom_t.dtype == np.float64 and list(F.atom_t) == [0.5, -1.0]
        assert F.atom_W.dtype == complex and np.array_equal(F.atom_W, [np.eye(2), 2 * np.eye(2)])
        Z = RealizedFunction.zero(3)
        assert Z.atom_t.shape == (0,) and Z.atom_W.shape == (0, 3, 3)
        assert np.array_equal(asymptotic_C(Z), np.zeros((3, 3)))

    def test_one_weight_of_the_right_shape_per_atom(self):
        for W in (np.eye(3), [[1.0, 0.0]]):
            with pytest.raises(ValueError, match="weight"):
                RealizedFunction.from_measure(np.zeros((2, 2)), np.zeros((2, 2)), [(0.5, W)], validate=False)

    @pytest.mark.parametrize("d", [1, 2])
    def test_measure_values_match_the_per_atom_loop(self, d, lam_grid):
        # the reference adds one atom at a time, in Python scalars where lam is one
        G = random_nevanlinna(d, d, 10).measure_form()
        atoms = list(zip(G.atom_t.tolist(), G.atom_W))
        value = G.A + G.B * lam_grid[..., None, None]
        for t, W in atoms:
            value = value + W * (1.0 / (t - lam_grid) - t / (t * t + 1.0))[..., None, None]
        assert np.array_equal(evaluate(G, lam_grid), value)
        for lam in lam_grid.ravel().tolist():
            assert np.array_equal(G.derivative(lam), sum((W / (t - lam) ** 2 for t, W in atoms), G.B))
        assert np.array_equal(asymptotic_C(G), sum((W for _, W in atoms), np.zeros((d, d), complex)))

    def test_psd_check_of_a_stack(self):
        assert is_psd_gram(np.zeros((0, 2, 2)))
        W = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        assert is_psd_gram(W[:1]) and not is_psd_gram(W)
        # each matrix is measured against its own scale, as one check per matrix would
        assert not is_psd_gram(np.stack([1e12 * np.eye(2), np.diag([1.0, -1e-3])]))


class TestMeasureRealizationEquivalence:
    def test_values_agree(self):
        for seed in range(8):
            F = random_nevanlinna(seed, 2, 6)
            G = F.measure_form()
            for lam in (1j, 2j, -0.5 - 1.5j, 3 + 0.7j):
                assert np.max(np.abs(evaluate(F, lam) - evaluate(G, lam))) < 1e-12

    def test_repeated_eigenvalue_is_one_atom(self):
        G = RealizedFunction.from_realization(np.diag([1.0, 1.0, 2.0]), [[0.6], [0.0], [0.8]]).measure_form()
        assert list(G.atom_t) == [1.0, 2.0]
        assert np.allclose(G.atom_W[:, 0, 0], [0.36, 0.64], rtol=0, atol=1e-15)

    def test_derivative_agrees(self):
        F = random_nevanlinna(11, 2, 5)
        G = F.measure_form()
        assert np.max(np.abs(F.derivative(1 + 1j) - G.derivative(1 + 1j))) < 1e-12


class TestAsymptoticC:
    def test_scalar_realization(self):
        F = RealizedFunction.from_realization([[0.0]], [[1.0]])
        assert abs(asymptotic_C(F)[0, 0] - 1.0) < 1e-15

    def test_measure_total_mass(self):
        W = np.eye(2)
        F = RealizedFunction.from_measure(np.zeros((2, 2)), np.zeros((2, 2)), [(0.0, W)])
        assert np.max(np.abs(asymptotic_C(F) - np.eye(2))) < 1e-15

    def test_two_point_K(self):
        K = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        F = RealizedFunction.from_realization(np.diag([-1.0, 1.0]), K)
        assert abs(asymptotic_C(F)[0, 0] - 1.0) < 1e-14

    def test_unbounded_with_linear_term(self):
        F = RealizedFunction.from_measure([[0.0]], [[1.0]], ())
        with pytest.raises(UnboundedLimitError):
            asymptotic_C(F)

    def test_eigenvalues_in_unit_interval(self):
        for seed in range(20):
            C = asymptotic_C(random_nevanlinna(seed, 2, 6))
            w = np.linalg.eigvalsh(C)
            assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12

    def test_contraction_inequality(self):
        # Im M(lam)/Im lam - M(lam) M(lam)* is PSD when ||K|| <= 1
        rng = np.random.default_rng(31)
        for seed in range(10):
            F = random_nevanlinna(seed, 2, 6)
            for _ in range(20):
                lam = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.3, 3))
                M = evaluate(F, lam)
                imM = (M - M.conj().T) / 2j
                G = imM / lam.imag - M @ M.conj().T
                assert np.linalg.eigvalsh((G + G.conj().T) / 2).min() >= -1e-10


class TestNevanlinnaGram:
    def test_single_atom_psd(self):
        F = RealizedFunction.from_measure([[0.0]], [[0.0]], [(0.3, [[1.0]])])
        S = sample_points(42, 5, 1)
        G = nevanlinna_gram(F, S)
        assert is_psd_gram(G)

    def test_single_point_imaginary_part(self):
        F = random_nevanlinna(2, 2, 5)
        lam = 0.5 + 1.5j
        f = np.array([1.0, -0.5 + 0.2j])
        S = SampleSet.of([lam], [f])
        G = nevanlinna_gram(F, S)
        M = evaluate(F, lam)
        imM = (M - M.conj().T) / 2j
        expected = (f.conj() @ imM @ f / lam.imag).real
        assert abs(G[0, 0].real - expected) < 1e-12
        assert G[0, 0].real >= 0

    def test_negated_atom_weight_detected(self):
        F = RealizedFunction.from_measure(
            [[0.0]], [[0.0]], [(0.0, [[1.0]]), (0.7, [[-2.0]])], validate=False
        )
        S = sample_points(5, 6, 1)
        assert np.linalg.eigvalsh(nevanlinna_gram(F, S)).min() < 0

    def test_coincident_conjugate_points_use_derivative(self):
        F = random_nevanlinna(8, 1, 4)
        # points lam and conj(lam) collide in the kernel denominator
        lam = 0.4 + 1.1j
        S = SampleSet.of([lam, np.conj(lam)], [np.array([1.0]), np.array([1.0])])
        G = nevanlinna_gram(F, S)
        assert np.all(np.isfinite(G))
        assert is_psd_gram(G)

    def test_random_functions_psd(self):
        for seed in range(15):
            F = random_nevanlinna(seed, 2, 6)
            S = sample_points(100 + seed, 6, 2)
            assert is_psd_gram(nevanlinna_gram(F, S))


class TestIntervalGram:
    def test_dual_formula_identity(self):
        F = random_contraction_resolvent(7, 2, 7)
        T, K = F.T, F.K
        n = T.shape[0]
        defect = np.eye(n) - T @ T
        rng = np.random.default_rng(12)
        for _ in range(20):
            lam = complex(rng.uniform(-3, 3), rng.uniform(0.3, 3))
            xi = complex(rng.uniform(-3, 3), rng.uniform(0.3, 3))
            xb = np.conj(xi)
            L = (
                (1 - lam * lam) * evaluate(F, lam)
                - (1 - xb * xb) * evaluate(F, xi).conj().T
                - (lam - xb) * np.eye(2)
            ) / (lam - xb)
            R = K.conj().T @ np.linalg.solve(
                T - lam * np.eye(n), defect @ np.linalg.solve(T - xb * np.eye(n), K)
            )
            assert np.max(np.abs(L - R)) < 1e-11

    def test_contraction_resolvents_psd(self):
        for seed in range(15):
            F = random_contraction_resolvent(seed, 2, 6)
            S = sample_points(200 + seed, 6, 2)
            assert is_psd_gram(class_n0_interval_gram(F, S))

    def test_fixed_point_in_class(self):
        # the Chebyshev-operator truncation realizes an approximation of the
        # Gamma fixed point by a genuine selfadjoint contraction
        from nevtrans.jacobi import build_J0

        J = build_J0(1, 80)
        K = np.zeros((80, 1))
        K[0, 0] = 1.0
        F = RealizedFunction.from_realization(J.dense(), K)
        S = sample_points(17, 8, 1)
        assert is_psd_gram(class_n0_interval_gram(F, S))

    def test_fixed_point_exact_kernel(self):
        # direct kernel computation with the closed-form fixed point values
        from nevtrans.specialfn import m0_gamma

        rng = np.random.default_rng(19)
        pts = [complex(rng.uniform(-3, 3), rng.uniform(0.3, 3)) for _ in range(8)]
        n = len(pts)
        G = np.empty((n, n), dtype=complex)
        for k in range(n):
            for l in range(n):
                lam, xb = pts[k], np.conj(pts[l])
                G[k, l] = (
                    (1 - lam * lam) * m0_gamma(lam)
                    - (1 - xb * xb) * np.conj(m0_gamma(pts[l]))
                    - (lam - xb)
                ) / (lam - xb)
        G = (G + G.conj().T) / 2
        assert np.linalg.eigvalsh(G).min() >= -1e-10 * (1 + np.linalg.norm(G, 2))

    def test_non_contraction_fails_class_test(self):
        T = 1.5 * np.diag([1.0, -1.0, 0.4])
        K = np.zeros((3, 1))
        K[0, 0] = 1.0
        F = RealizedFunction.from_realization(T, K)
        worst = 0.0
        for seed in range(30):
            S = sample_points(300 + seed, 6, 1, lo=0.1, hi=1.5)
            worst = min(worst, np.linalg.eigvalsh(class_n0_interval_gram(F, S)).min())
        assert worst < -0.01

    def test_matches_double_loop_reference(self):
        for d in (1, 2):
            F = random_contraction_resolvent(30 + d, d, 6)
            S = sample_points(40 + d, 8, d)
            n = len(S.points)
            G = np.empty((n, n), dtype=complex)
            for k in range(n):
                for l in range(n):
                    lam, xb = S.points[k], np.conj(S.points[l])
                    L = (
                        (1 - lam * lam) * evaluate(F, lam)
                        - (1 - xb * xb) * evaluate(F, S.points[l]).conj().T
                        - (lam - xb) * np.eye(d)
                    ) / (lam - xb)
                    G[k, l] = S.vectors[k].conj() @ L @ S.vectors[l]
            G = (G + G.conj().T) / 2
            got = class_n0_interval_gram(F, S)
            assert np.max(np.abs(got - G)) <= 1e-14 * (1 + np.linalg.norm(G, 2))

    def test_conjugate_collision_rejected(self):
        F = random_contraction_resolvent(3, 1, 4)
        lam = 0.5 + 1.0j
        S = SampleSet.of([lam, np.conj(lam)], [np.array([1.0]), np.array([1.0])])
        with pytest.raises(ValueError):
            class_n0_interval_gram(F, S)


class TestGenerators:
    def test_determinism(self):
        F1 = random_nevanlinna(1, 1, 4)
        F2 = random_nevanlinna(1, 1, 4)
        assert np.array_equal(evaluate(F1, 1j), evaluate(F2, 1j))

    def test_contraction_norms(self):
        for seed in range(10):
            F = random_nevanlinna(seed, 2, 5)
            assert np.linalg.norm(F.K, 2) <= 1.0 + 1e-12
            assert np.linalg.norm(F.T, 2) <= 1.0 + 1e-12
            G = random_contraction_resolvent(seed, 2, 5)
            assert np.linalg.norm(G.T, 2) <= 1.0 + 1e-12
            # K is an isometric embedding
            assert np.max(np.abs(G.K.conj().T @ G.K - np.eye(2))) < 1e-12

    def test_one_draw_of_t_then_k(self):
        # both generators draw the scaled Hermitian T first, then their own K
        for seed in range(10):
            rng = np.random.default_rng(seed)
            G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            T = (G + G.conj().T) / 2.0
            T = T / np.linalg.norm(T, 2)
            F, Fc = random_nevanlinna(seed, 2, 6), random_contraction_resolvent(seed, 2, 6)
            assert np.array_equal(F.T, T) and np.array_equal(Fc.T, T)
            K = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
            assert np.array_equal(F.K, K / max(1.0, np.linalg.norm(K, 2)))

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            random_nevanlinna(0, 2, 1)
        with pytest.raises(ValueError):
            random_contraction_resolvent(0, 3, 2)


class TestValidation:
    def test_non_hermitian_A_rejected(self):
        with pytest.raises(ValueError):
            RealizedFunction.from_measure([[1j]], [[0.0]], ())

    def test_negative_B_rejected(self):
        with pytest.raises(ValueError):
            RealizedFunction.from_measure([[0.0]], [[-1.0]], ())

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            RealizedFunction.from_measure([[0.0]], [[0.0]], [(0.0, [[1.0]]), (0.0, [[1.0]])])

    def test_expansive_K_rejected(self):
        with pytest.raises(NotContractionError):
            RealizedFunction.from_realization([[0.0]], [[2.0]])

    def test_mismatched_shapes_rejected(self):
        # checked with or without validate, like finiteness: a 1 x 1 B would
        # otherwise broadcast into an all-ones matrix
        for make in (
            lambda v: RealizedFunction.from_measure(np.zeros((2, 2)), [[1.0]], (), validate=v),
            lambda v: RealizedFunction.from_measure(np.zeros((2, 3)), np.zeros((2, 3)), (), validate=v),
            lambda v: RealizedFunction.from_realization(np.zeros((3, 2)), np.zeros((3, 1)), validate=v),
            lambda v: RealizedFunction.from_realization(np.zeros((3, 3)), np.zeros((2, 1)), validate=v),
        ):
            for validate in (True, False):
                with pytest.raises(ValueError, match="d x d|square"):
                    make(validate)

    def test_exactly_one_variant(self):
        z = np.zeros((1, 1), dtype=complex)
        measure = dict(A=z, B=z, atom_t=np.zeros(0), atom_W=np.zeros((0, 1, 1), complex))
        for fields in ({}, dict(measure, T=z, K=z), dict(A=z, B=z), dict(T=z)):
            with pytest.raises(ValueError, match="exactly one"):
                RealizedFunction(**fields)
        assert RealizedFunction(**measure).variant == "measure"
        F = RealizedFunction(T=np.zeros((3, 3), complex), K=np.eye(3, 2, dtype=complex))
        assert (F.variant, F.dim) == ("realization", 2)


class TestJson:
    def test_measure_round_trip(self):
        F = RealizedFunction.from_measure(
            [[0.5]], [[0.25]], [(0.3, [[1.0]]), (-1.2, [[0.5]])]
        )
        G = RealizedFunction.from_json(F.to_json())
        assert np.array_equal(evaluate(F, 1 + 1j), evaluate(G, 1 + 1j))

    def test_realization_round_trip(self):
        F = random_nevanlinna(5, 2, 5)
        G = RealizedFunction.from_json(F.to_json())
        assert np.array_equal(F.T, G.T)
        assert np.array_equal(F.K, G.K)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            RealizedFunction.from_json('{"variant": "mystery", "dim": 1}')

    def test_declared_dim_must_match(self):
        for F in (RealizedFunction.zero(2), random_nevanlinna(5, 2, 5)):
            doc = json.loads(F.to_json())
            assert doc["dim"] == 2
            doc["dim"] = 5
            with pytest.raises(ValueError, match="dim"):
                RealizedFunction.from_json(json.dumps(doc), validate=False)


class TestSampleSet:
    def test_rejects_real_points(self):
        with pytest.raises(ValueError):
            SampleSet.of([1.0 + 0j], [np.array([1.0])])
        for bad in (complex("nan+1j"), complex("1+infj")):
            with pytest.raises(ValueError):
                SampleSet.of([1j, bad], [np.array([1.0]), np.array([1.0])])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSet.of([], [])

    def test_rejects_missing_vectors(self):
        for vectors in ([np.array([1.0])], [np.ones(2), np.ones(3)], [1.0, 2.0]):
            with pytest.raises(ValueError):
                SampleSet.of([1j, 2j], vectors)

    def test_rejects_non_finite_vectors(self):
        # nevanlinna_gram and class_n0_interval_gram would return NaN: each entry is v_k* K(lam_k, lam_l) v_l
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)):
            with pytest.raises(ValueError, match="vectors must be finite"):
                SampleSet.of([1j, 1 + 1j], [[bad], [1.0]])

    def test_holds_arrays(self):
        S = SampleSet.of([1j, 2 - 1j], [[1.0], [2.0]])
        assert S.points.dtype == complex and S.points.shape == (2,)
        assert S.vectors.dtype == complex and S.vectors.shape == (2, 1)


def _non_finite_calls():
    """(name, call) pairs: every routine that takes a spectral parameter."""
    from nevtrans import canonical, jacobi, realize, specialfn, transforms
    from nevtrans.kac import hamiltonian_H0

    F = random_nevanlinna(1, 1, 3)
    Fm = F.measure_form()
    J, J3 = jacobi.build_Jhat0(1, 5), jacobi.build_Jhat0(3, 5)  # J3 runs as its scalar chain
    H = hamiltonian_H0(20)
    one, on_line = np.eye(1, dtype=complex), np.eye(3, dtype=complex)  # both take gamma's scalar entry
    return [
        ("evaluate realization", lambda lam: evaluate(F, lam)),
        ("evaluate measure", lambda lam: evaluate(Fm, lam)),
        ("derivative realization", F.derivative),
        ("derivative measure", Fm.derivative),
        ("m_resolvent", lambda lam: jacobi.m_resolvent(J, lam)),
        ("m_cf", lambda lam: jacobi.m_cf(J, lam)),
        ("m_resolvent Kronecker", lambda lam: jacobi.m_resolvent(J3, lam)),
        ("m_cf Kronecker", lambda lam: jacobi.m_cf(J3, lam)),
        ("quadrature_m0", lambda lam: jacobi.quadrature_m0(lam, 100, 1)),
        ("sqrt_offcut", lambda lam: specialfn.sqrt_offcut(lam, 1.0)),
        ("m0_gamma", specialfn.m0_gamma),
        ("m0_gammahat", specialfn.m0_gammahat),
        ("gamma", lambda lam: transforms.gamma(one, lam)),
        ("gamma_hat", lambda lam: transforms.gamma_hat(one, lam)),
        ("gamma c I_3", lambda lam: transforms.gamma(on_line, lam)),
        ("gamma_hat c I_3", lambda lam: transforms.gamma_hat(on_line, lam)),
        ("iterate_gamma_hat", lambda lam: transforms.iterate_gamma_hat(F, lam, 3)),
        ("compressed_resolvent", lambda lam: realize.compressed_resolvent(F.T, F.K, lam)),
        ("compressed_resolvent_schur", lambda lam: realize.compressed_resolvent_schur(one, F.K, F.T, lam)),
        ("transfer_matrix", lambda lam: canonical.transfer_matrix(0.3, 1.0, lam)),
        ("weyl_disk", lambda lam: canonical.weyl_disk(H, lam, 4)),
        ("m_canonical", lambda lam: canonical.m_canonical(H, lam, 1e-6)),
    ]


@pytest.mark.parametrize("name", [name for name, _ in _non_finite_calls()])
@pytest.mark.parametrize("lam", [complex("nan+1j"), complex("1+infj"), complex("-inf+0.5j")], ids=["nan", "inf", "-inf"])
def test_non_finite_lambda_rejected(name, lam):
    call = dict(_non_finite_calls())[name]
    with pytest.raises(ValueError, match="must be finite"):
        call(lam)
