"""Named verification suites: each check returns (passed, detail).

The CLI ``verify`` subcommand runs a suite by name; the test suite runs all
of them.  Every tolerance is pinned here.
"""

from __future__ import annotations

import math

import numpy as np

from . import canonical, jacobi, kac, realize, transforms
from .herglotz import (
    RealizedFunction,
    SampleSet,
    class_n0_interval_gram,
    evaluate,
    nevanlinna_gram,
    random_contraction_resolvent,
    random_nevanlinna,
)
from .specialfn import m0_gamma, m0_gammahat


def _grid_lambdas() -> np.ndarray:
    """Deterministic grid of 100 lambda with |Im lam| in [0.5, 5], in conjugate pairs."""
    lam = np.add.outer(np.linspace(-3.0, 3.0, 10), 1j * np.linspace(0.5, 5.0, 5))
    return np.stack([lam, lam.conj()], axis=-1).ravel()


def check_fixed_points():
    lams = _grid_lambdas()
    val = m0_gammahat(lams)[:, None, None]
    worst = np.max(np.abs(transforms.gamma_hat(val, lams) - val))
    for d in (1, 3):
        M = np.multiply.outer(m0_gamma(lams), np.eye(d))
        worst = max(worst, np.max(np.linalg.norm(transforms.gamma(M, lams) - M, 2, axis=(-2, -1))))
    return worst < 1e-12, f"max fixed-point residual {worst:.3e} (tol 1e-12)"


def check_quadrature():
    rng = np.random.default_rng(7)
    lams = np.array([complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.5, 4)) for _ in range(20)])
    worst = float(max(
        np.max(np.abs(jacobi.quadrature_m0(lams, 10_000, 1) - m0_gamma(lams))),
        np.max(np.abs(jacobi.quadrature_m0(lams, 10_000, 2) - m0_gammahat(lams))),
    ))
    return worst < 1e-10, f"max quadrature error {worst:.3e} (tol 1e-10)"


def check_contraction():
    tr = transforms.iterate_gamma_hat(RealizedFunction.zero(1), 2j, 30)
    floor = transforms.RESIDUAL_FLOOR
    ok = tr.residuals[-1] <= floor and tr.max_ratio <= 0.25 + 1e-10
    return ok, (
        f"final residual {tr.residuals[-1]:.3e} (tol {floor:g}), "
        f"max ratio {tr.max_ratio:.6f} (bound 0.25)"
    )


def check_uniform_grid():
    lams = np.add.outer(np.linspace(1.0, 2.0, 20), 1j * np.linspace(1.5, 2.5, 20))
    worst = np.max(transforms.iterate_gamma_hat(RealizedFunction.zero(1), lams, 20).residuals[-1])
    return worst < 1e-10, f"max residual at n=20 over compact grid {worst:.3e} (tol 1e-10)"


def check_truncation():
    e1 = abs(jacobi.m_resolvent(jacobi.build_Jhat0(1, 200), 1 + 2j)[0, 0] - m0_gammahat(1 + 2j))
    e2 = abs(jacobi.m_resolvent(jacobi.build_J0(1, 400), 2j)[0, 0] - m0_gamma(2j))
    ok = e1 < 1e-8 and e2 < 1e-10
    return ok, f"free-Schroedinger N=200 error {e1:.3e} (tol 1e-8), Chebyshev N=400 error {e2:.3e} (tol 1e-10)"


def check_wollen():
    rng = np.random.default_rng(11)
    worst = 0.0
    worst_norm = 0.0
    simple_ok = True
    for trial in range(10):
        F = random_contraction_resolvent(100 + trial, 3, 12)
        R = realize.SubspaceRealization.of(F.T, F.K)
        bT = realize.bold_T(R)
        worst_norm = max(worst_norm, float(np.linalg.norm(bT.T, 2)))
        lams = np.array([complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.3, 3)) for _ in range(20)])
        want = np.linalg.inv(R.m_function(lams)) / (lams * lams - 1.0)[:, None, None]
        worst = max(worst, float(np.max(np.abs(bT.m_function(lams) - want))))
        if realize.simplicity_check(R)[0] and not realize.simplicity_check(bT)[0]:
            simple_ok = False
    ok = worst < 1e-10 and worst_norm <= 1.0 + 1e-12 and simple_ok
    return ok, (
        f"max realization identity error {worst:.3e} (tol 1e-10), "
        f"max ||bold_T|| {worst_norm:.15f}, simplicity preserved: {simple_ok}"
    )


def check_chain():
    rng = np.random.default_rng(13)
    worst = 0.0
    corner_ok = True
    for trial in range(5):
        F = random_nevanlinna(50 + trial, 2, 6)
        lams = np.array([complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.5, 3)) for _ in range(6)])
        val = evaluate(F, lams)
        for n in range(1, 7):
            C = realize.chain_A(F.K, F.T, n)
            if n >= 2:
                corner = C.assembled[: 2 * n, : 2 * n]
                if not np.array_equal(corner, jacobi.build_Jhat0(2, n).dense()):
                    corner_ok = False
            # seed realizes the first iterate; depth n yields iterate n+1,
            # i.e. n applications of the map to the seed's value
            val = transforms.gamma_hat(val, lams)
            got = realize.compressed_resolvent(C.assembled, C.m_basis(), lams)
            worst = max(worst, float(np.max(np.abs(got - val))))
    ok = worst < 1e-10 and corner_ok
    return ok, f"max chain realization error {worst:.3e} (tol 1e-10), corner embedding exact: {corner_ok}"


def check_kac():
    m = 52
    H = kac.kac_algorithm([0.0] * m, [1.0] * m, m)
    worst = max(
        float(np.max(np.abs(H.lengths() - 1.0))),
        float(np.max(np.abs(H.thetas[:51] - np.arange(1, 52) * math.pi / 2.0))),
    )
    first_ok = bool(
        np.max(np.abs(kac.evaluate_H(H, 0.5) - np.array([[0.0, 0.0], [0.0, 1.0]]))) < 1e-12
    )
    Ha = kac.kac_algorithm([1.0, 0.0, 0.0], [1.0, 1.0, 1.0], 4)
    worst = max(
        worst,
        abs(Ha.thetas[1] - 5 * math.pi / 4),
        abs(Ha.lengths()[1] - 2.0),
        abs(Ha.thetas[2] - 3 * math.pi / 2),
    )
    ok = worst < 1e-12 and first_ok
    return ok, f"max coefficient-recursion error {worst:.3e} (tol 1e-12), first interval exact: {first_ok}"


_COEFF_SETS = (
    ([1.0] + [0.0] * 30, [1.0] * 31),
    ([0.5, -0.3, 0.2, 0.0, -0.1] + [0.0] * 26, [1.2, 0.8, 1.0, 0.9, 1.1] + [1.0] * 26),
)


def check_hn_two_path():
    worst = 0.0
    prefix_ok = True
    for a, b in _COEFF_SETS:
        H = kac.kac_algorithm(a, b, 12)
        for n in range(1, 9):
            Hn = kac.hamiltonian_Hn(H, n)
            shifted = kac.kac_algorithm([0.0] * n + list(a), [1.0] * n + list(b), 12 + n)
            th, bp = Hn.thetas, Hn.breakpoints
            worst = max(worst, float(np.max(np.abs(th - shifted.thetas[: len(th)]))),
                        float(np.max(np.abs(bp - shifted.breakpoints[: len(bp)]))))
            H0 = kac.hamiltonian_H0(n + 1)
            if not (np.array_equal(bp[: n + 2], H0.breakpoints) and np.array_equal(th[: n + 1], H0.thetas)):
                prefix_ok = False
    ok = worst < 1e-12 and prefix_ok
    return ok, f"max two-path deviation {worst:.3e} (tol 1e-12), prefix property exact: {prefix_ok}"


def check_kac_canonical():
    H0 = kac.hamiltonian_H0(70)
    est = canonical.m_canonical(H0, 2j, 1e-6)
    e1 = abs(est.center - m0_gammahat(2j))
    ok = est.converged and e1 < 1e-6 and est.radius < 1e-6 and est.truncation_T <= 60.0
    a, b = _COEFF_SETS[0]
    Ha = kac.kac_algorithm(a, b, 30)
    lam = 2j
    oracle = -1.0 / (lam - 1.0 + m0_gammahat(lam))
    est2 = canonical.m_canonical(Ha, lam, 1e-6)
    e2 = abs(est2.center - oracle)
    ok = ok and est2.converged and e2 < 2e-6
    return ok, (
        f"alternating Hamiltonian error {e1:.3e} (tol 1e-6, radius {est.radius:.3e} at T={est.truncation_T}), "
        f"a0=1 vs Schur oracle error {e2:.3e} (tol 2e-6)"
    )


def check_kernels():
    rng = np.random.default_rng(17)
    worst_nev = 0.0
    worst_int = 0.0
    for trial in range(50):
        d = int(rng.integers(1, 3))
        n = d + int(rng.integers(2, 6))
        pts = [complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.3, 3)) for _ in range(8)]
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(8)]
        S = SampleSet.of(pts, vecs)
        F = random_nevanlinna(200 + trial, d, n)
        G = nevanlinna_gram(F, S)
        worst_nev = max(worst_nev, -np.linalg.eigvalsh(G).min() / (1.0 + np.linalg.norm(G, 2)))
        Fc = random_contraction_resolvent(300 + trial, d, n)
        G2 = class_n0_interval_gram(Fc, S)
        worst_int = max(worst_int, -np.linalg.eigvalsh(G2).min() / (1.0 + np.linalg.norm(G2, 2)))
    # dual-formula identity for the interval kernel
    Fc = random_contraction_resolvent(42, 2, 8)
    T, K = Fc.T, Fc.K
    # the same numbers as 20 scalar draws of (Re lam, Im lam, Re xi, Im xi)
    lam_re, lam_im, xi_re, xi_im = np.random.default_rng(19).uniform([-3, 0.3, -3, 0.3], 3, size=(20, 4)).T
    lam, xb = lam_re + 1j * lam_im, xi_re - 1j * xi_im
    M_lam, M_xi = evaluate(Fc, lam), evaluate(Fc, xb.conj())
    lam, xb = lam[:, None, None], xb[:, None, None]
    eye8 = np.eye(8)
    L = ((1 - lam * lam) * M_lam - (1 - xb * xb) * np.swapaxes(M_xi.conj(), -1, -2) - (lam - xb) * np.eye(2)) / (lam - xb)
    Rm = K.conj().T @ np.linalg.solve(T - lam * eye8, (eye8 - T @ T) @ np.linalg.solve(T - xb * eye8, K[None]))
    worst_id = float(np.max(np.abs(L - Rm)))
    ok = worst_nev <= 1e-10 and worst_int <= 1e-10 and worst_id < 1e-11
    return ok, (
        f"worst relative negative eigenvalue: nevanlinna {worst_nev:.3e}, interval {worst_int:.3e} "
        f"(tol 1e-10); dual-formula identity error {worst_id:.3e} (tol 1e-11)"
    )


def check_hamiltonian_scheme():
    H0 = kac.hamiltonian_H0(20)
    out = kac.hamiltonian_Hn(H0, 1)
    expected = kac.hamiltonian_H0(21)
    exact = np.array_equal(out.breakpoints, expected.breakpoints) and np.array_equal(out.thetas, expected.thetas)
    worst = 0.0
    for a, b in _COEFF_SETS:
        H = kac.kac_algorithm(a, b, 12)
        g = kac.hamiltonian_Hn(H, 1)
        # the scheme by its definition: breakpoints (0, t + 1), angles (pi/2, theta + pi/2)
        bp = np.concatenate([[0.0], H.breakpoints + 1.0])
        th = np.concatenate([[math.pi / 2.0], H.thetas + math.pi / 2.0])
        worst = max(
            worst,
            float(np.max(np.abs(g.breakpoints - bp))),
            float(np.max(np.abs(g.thetas - th))),
        )
    ok = exact and worst <= 1e-12
    return ok, f"fixed Hamiltonian exact: {exact}; scheme vs shift construction deviation {worst:.3e} (tol 1e-12)"


SUITES = {
    "fixed-points": check_fixed_points,
    "quadrature": check_quadrature,
    "contraction": check_contraction,
    "uniform-grid": check_uniform_grid,
    "truncation": check_truncation,
    "wollen": check_wollen,
    "chain": check_chain,
    "kac": check_kac,
    "hn-two-path": check_hn_two_path,
    "kac-canonical": check_kac_canonical,
    "kernels": check_kernels,
    "hamiltonian-scheme": check_hamiltonian_scheme,
}
