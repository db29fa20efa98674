"""Tests of the benchmark itself: every output check accepts the program's
output and rejects a perturbed one, and the tracer reports what it wraps.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as ck  # noqa: E402
import nevtrans as nt  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
LAM = 0.4 + 0.3j


# -- reference computations -------------------------------------------------------

def test_closed_forms_match_the_free_matrices():
    for lam in (LAM, -1.7 - 0.05j, 2.5 + 2j):
        assert not ck.close(nt.m_resolvent(nt.build_Jhat0(1, 200), lam), ck.m_free(lam, 200), lam, "")
        assert not ck.close(nt.m_resolvent(nt.build_J0(1, 200), lam), ck.m_chebyshev(lam, 200), lam, "")
    lam = 0.5 + 0.05j  # near the spectrum the truncation length still shows
    assert ck.close(nt.m_resolvent(nt.build_Jhat0(1, 200), lam), ck.m_free(lam, 199), lam, "")
    assert ck.close(nt.m_resolvent(nt.build_J0(1, 200), lam), ck.m_chebyshev(lam, 199), lam, "")


def test_close_rejects_a_perturbed_value():
    assert not ck.close(1.0 + 1j, 1.0 + 1j, LAM, "")
    assert ck.close(1.0 + 1j + 1e-9, 1.0 + 1j, LAM, "")


def test_dense_reference_matches_a_dense_solve():
    rng = np.random.default_rng(0)
    a, b = wl.random_jacobi_blocks(rng, 2, 30)
    J = ck.dense_jacobi(a, b)
    solved = np.linalg.solve(J - LAM * np.eye(60), np.eye(60)[:, :2])[:2]
    assert not ck.close(ck.Spectral.of_jacobi(a, b).m(LAM), solved, LAM, "")
    assert not ck.close(solved, nt.m_cf(nt.BlockJacobi.of(a, b), LAM), LAM, "")


def test_symmetry_check_rejects_broken_conjugation_and_sign():
    J = nt.build_Jhat0(1, 50)
    M, Mc = nt.m_resolvent(J, LAM), nt.m_resolvent(J, LAM.conjugate())
    assert not ck.check_symmetry(M, Mc, LAM)
    assert ck.check_symmetry(M, Mc + 1e-9, LAM)
    assert ck.check_symmetry(M.conj(), M, LAM)


def test_contraction_check_rejects_a_stalled_iterate():
    lam = 0.3 + 1.5j
    values = nt.iterate_gamma_hat(nt.RealizedFunction.zero(1), lam, 20).values
    assert not ck.check_contraction(values, lam)
    stalled = list(values)
    stalled[5] = stalled[4]
    assert ck.check_contraction(stalled, lam)


def test_psd_and_norm_checks():
    G = np.diag([1.0, 2.0, 0.0])
    assert not ck.check_psd(G, "G")
    assert ck.check_psd(G - 1e-6 * np.eye(3), "G")
    T = nt.random_contraction_resolvent(1, 1, 6).T
    assert not ck.check_norm_le_one(T, "T")
    assert ck.check_norm_le_one(T * (1 + 1e-9), "T")


def test_gamma_hat_disk_maps_the_boundary():
    c, r, lam = 0.2 + 0.5j, 0.1, 0.3 + 0.4j
    c2, r2 = ck.gamma_hat_disk(c, r, lam, 3)
    for t in np.linspace(0, 2 * np.pi, 7):
        z = c + r * np.exp(1j * t)
        for _ in range(3):
            z = -1 / (z + lam)
        assert abs(abs(z - c2) - r2) < 1e-12
    assert not ck.check_disks_meet(c2, r2, c2 + 1.5 * r2, r2, "")
    assert ck.check_disks_meet(c2, r2, c2 + 3 * r2, r2, "")
    assert not ck.check_in_disk(c2 + 0.5 * r2, c2, r2, "")
    assert ck.check_in_disk(c2 + 2 * r2, c2, r2, "")


# -- workload operations ----------------------------------------------------------------

def _first_op_output(workload):
    op = workload.round()[0]
    out = op.run()
    assert op.check(out) == []
    return op, out


def test_jacobi_grid_checks_reject_perturbed_outputs():
    op, out = _first_op_output(wl.JacobiGrid(0))
    m_res, m_cf, iterated, gam, traces = out

    def rejects(mutate):
        bad = copy.deepcopy(out)
        mutate(*bad)
        return op.check(bad) != []

    assert rejects(lambda m_res, m_cf, *_: m_cf.__setitem__(1, m_cf[1] + 1e-9))
    both = lambda m_res, m_cf, *_: (m_res.__setitem__(0, m_res[0] * (1 + 1e-9)),  # noqa: E731
                                    m_cf.__setitem__(0, m_cf[0] * (1 + 1e-9)))
    assert rejects(both)
    assert rejects(lambda m_res, m_cf, iterated, *_: iterated.__setitem__(0, iterated[0] + 1e-9))
    assert rejects(lambda m_res, m_cf, iterated, gam, _: gam.__setitem__(2, gam[2] * (1 + 1e-9)))

    def stall(*args):
        values = args[4][0].values
        values[3] = values[2]
    assert rejects(stall)


def test_free_matrix_ops_check_the_closed_forms():
    grid = wl.JacobiGrid(0)
    op = grid.round()[2]
    assert op.label == "Jhat0-d1"
    out = op.run()
    assert op.check(out) == []
    m_res, m_cf, iterated, gam, traces = out
    m_res[3] = m_res[3] * (1 + 1e-9)
    m_cf[3] = m_cf[3] * (1 + 1e-9)
    assert op.check(out) != []


def test_realize_kernels_checks_reject_perturbed_outputs():
    work = wl.RealizeKernels(0)
    work.sets = [work.sets[0][:2]]  # the n = 32 realizations keep the test fast
    op, out = _first_op_output(work)
    for index, mutate in [
        (0, lambda v: v.__setitem__(0, v[0] + 1e-8)),
        (5, lambda v: v.__setitem__(2, v[2] * (1 + 1e-8))),
        (6, lambda v: v.__setitem__(7, v[7] + 1e-8)),
    ]:
        bad = copy.deepcopy(out)
        mutate(bad[1][index])
        assert op.check(bad) != []
    bad = copy.deepcopy(out)
    vals, G_nev, G_int, psd, bT, bold_m, chain_m, simple = bad[0]
    shift = np.linalg.eigvalsh(G_nev).min() + 1e-6 * np.linalg.norm(G_nev, 2)
    bad[0] = (vals, G_nev - shift * np.eye(len(G_nev)), G_int, psd, bT, bold_m, chain_m, simple)
    assert op.check(bad) != []
    bad[0] = (vals, G_nev, G_int, (True, False), bT, bold_m, chain_m, simple)
    assert op.check(bad) != []


def test_kac_deep_checks_reject_perturbed_outputs():
    work = wl.KacDeep(0)
    work.coeffs = work.coeffs[:1]
    op = work.round()[-1]  # Im lambda = 2: the shortest truncation
    out = op.run()
    assert op.check(out) == []
    est, shifted, m_cf, m_res = out[0]

    def rejects(*changed):
        return op.check([changed]) != []

    assert rejects(est, shifted, m_cf + 1e-7, m_res + 1e-7)  # radii are below tol = 1e-8
    assert rejects(est, shifted, m_cf + 1e-9, m_res)
    moved = copy.copy(shifted)
    moved[1] = nt.WeylDiskEstimate(lam=est.lam, center=moved[1].center + 1e-7, radius=moved[1].radius,
                                   truncation_T=moved[1].truncation_T)
    assert rejects(est, moved, m_cf, m_res)
    unconverged = nt.WeylDiskEstimate(lam=est.lam, center=est.center, radius=est.radius,
                                      truncation_T=est.truncation_T, converged=False)
    assert rejects(unconverged, shifted, m_cf, m_res)


@pytest.fixture
def session(tmp_path):
    return wl.CliSession(0, str(tmp_path))


def _ops(session):
    return {op.label: op for op in session.round()}


def test_cli_checks_reject_wrong_mfun_and_iterate_output(session):
    ops = _ops(session)
    lams = [complex(re, im) for re in np.linspace(-2.5, 2.5, 20) for im in np.linspace(0.1, 2, 10)]
    rows = ["re_lambda,im_lambda,re_m00,im_m00"]
    dense = ck.Spectral.of_jacobi(session.a, session.b)
    for lam in lams:
        m = dense.m(lam)[0, 0]
        rows.append(f"{lam.real!r},{lam.imag!r},{float(m.real)!r},{float(m.imag)!r}")
    good = ("\n".join(rows) + "\n").encode()
    assert ops["mfun"].check((0, good)) == []
    assert ops["mfun"].check((0, good)) == []
    bad = good.replace(rows[5].split(",")[2].encode(), repr(float(rows[5].split(",")[2]) + 1e-9).encode())
    assert ops["mfun"].check((0, bad)) != []
    assert ops["mfun"].check((1, good)) != []

    value = ck.Spectral(session.start.T, session.start.K).m(session.lam)
    rows = ["n,re_value00,im_value00,residual,ratio"]
    for n in range(1, session.ITERATE_STEPS + 1):
        value = ck.gamma_hat(value, session.lam)
        rows.append(f"{n},{float(value[0, 0].real)!r},{float(value[0, 0].imag)!r},0,0")
    good = ("\n".join(rows) + "\n").encode()
    assert ops["iterate"].check((0, good)) == []
    n, re_v, im_v, *rest = rows[7].split(",")
    rows[7] = ",".join([n, repr(float(re_v) + 1e-9), im_v] + rest)
    assert ops["iterate"].check((0, ("\n".join(rows) + "\n").encode())) != []


def test_cli_checks_reject_wrong_kac_and_verify_output(session):
    ops = _ops(session)
    doc = json.loads(session_kac_json(session))
    good = json.dumps(doc).encode()
    assert ops["kac"].check((0, good)) == []
    doc["thetas"][10] = doc["thetas"][9] - 0.1
    assert ops["kac"].check((0, json.dumps(doc).encode())) != []
    assert ops["verify-kernels"].check((0, b"PASS kernels: ok\n")) == []
    assert ops["verify-kernels"].check((0, b"FAIL kernels: no\n")) != []
    assert ops["verify-chain"].check((0, b"PASS chain: a\n")) == []
    assert ops["verify-chain"].check((0, b"PASS chain: b\n")) != []  # not byte-identical


def session_kac_json(session) -> str:
    with open(os.path.join(session.workdir, "coeffs.json"), encoding="utf-8") as fh:
        J = nt.BlockJacobi.from_json(fh.read())
    a = [float(x[0, 0].real) for x in J.a]
    b = [float(x[0, 0].real) for x in J.b]
    return nt.kac_algorithm(a, b, session.KAC_LENGTH).to_json()


# -- tracer and benchmark definition ---------------------------------------------------

def test_tracer_wraps_copies_and_reports_self_time():
    t = tr.Tracer()
    t.install()
    try:
        import nevtrans.transforms as transforms
        assert transforms.evaluate is nt.herglotz.evaluate is nt.evaluate
        t.op_id = 0
        nt.iterate_gamma_hat(nt.RealizedFunction.zero(1), 2j, 5)
        nt.BlockJacobi.of([0.0, 0.0], [1.0])
    finally:
        t.uninstall()
    assert nt.evaluate.__name__ == "evaluate" and not hasattr(nt.evaluate, "__wrapped__")
    s = t.summary()
    assert s["calls"]["transforms.iterate_gamma_hat"] == 1
    assert s["calls"]["transforms.gamma_hat"] == 5
    assert s["calls"]["herglotz.evaluate"] == 1
    assert s["calls"]["jacobi.BlockJacobi.of"] == 1
    assert s["self_s"]["transforms.iterate_gamma_hat"] < s["incl_s"]["transforms.iterate_gamma_hat"]


def test_tracer_counts_the_canonical_and_gram_waste():
    t = tr.Tracer()
    t.install()
    try:
        t.op_id = 0
        H = nt.hamiltonian_H0(100)
        nt.m_canonical(H, 0.3 + 0.5j, 1e-8)
        F = nt.random_nevanlinna(1, 1, 4)
        nt.nevanlinna_gram(F, nt.SampleSet.of([1j, 1 + 1j, -1 + 2j], [[1.0], [1.0], [1.0]]))
    finally:
        t.uninstall()
    m = tr.per_layer_metrics(t.summary(), None, 1, 0.0, 0.0)
    assert m["herglotz.evaluate.calls_per_point"][0] == 6.0  # 2n evaluations for n points
    assert 1.5 < m["canonical.propagated_per_needed"][0] <= 2.0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    empty = tr.Tracer().summary()
    metrics = tr.per_layer_metrics(empty, None, 1, 0.0, 0.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(k, u) for k, (_, u) in metrics.items()]
    assert {w["name"] for w in bench["workloads"]} <= set(wl.WORKLOADS)
    import nevtrans.acceptance
    assert set(tr.SUITES) == set(nevtrans.acceptance.SUITES)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kac-deep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""


def test_tail_needs_ten_samples_beyond():
    import worker
    value, pct = worker.tail([float(i) for i in range(40)])
    assert value == 29.0 and math.isclose(pct, 75.0)
