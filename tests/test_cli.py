import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from nevtrans import cli
from nevtrans.cli import main
from nevtrans.errors import PoleError
from nevtrans.herglotz import random_nevanlinna
from nevtrans.jacobi import BlockJacobi, build_J0, build_Jhat0


try:
    RUNNER = CliRunner(mix_stderr=False)  # Click < 8.2 mixes stderr into stdout unless told not to
except TypeError:
    RUNNER = CliRunner()  # Click >= 8.2 always keeps them apart


def run_cli(*args):
    """Run the CLI in this process; the result reads like a finished subprocess."""
    r = RUNNER.invoke(main, args)
    return SimpleNamespace(returncode=r.exit_code, stdout=r.stdout, stderr=r.stderr)


@pytest.fixture()
def jhat2(tmp_path):
    p = tmp_path / "jhat2.json"
    p.write_text(build_Jhat0(1, 2).to_json())
    return str(p)


@pytest.fixture()
def jhat20(tmp_path):
    p = tmp_path / "jhat20.json"
    p.write_text(build_Jhat0(1, 20).to_json())
    return str(p)


class TestMfun:
    def test_single_point_row(self, jhat2):
        r = run_cli("mfun", jhat2, "--lambda", "0,2")
        assert r.returncode == 0
        rows = r.stdout.strip().split("\n")
        assert rows[0] == "re_lambda,im_lambda,re_m00,im_m00"
        vals = [float(x) for x in rows[1].split(",")]
        assert vals == [0.0, 2.0, 0.0, 0.4]

    def test_discrepancy_reported(self, jhat20):
        r = run_cli("mfun", jhat20, "--lambda", "1,1")
        assert r.returncode == 0
        assert "max discrepancy" in r.stderr
        assert float(r.stderr.split(":")[1]) < 1e-12

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        r = run_cli("mfun", str(p), "--lambda", "0,2")
        assert r.returncode == 2

    def test_grid_touching_real_axis(self, jhat20):
        r = run_cli("mfun", jhat20, "--grid", "-1:1:3,0:1:2")
        assert r.returncode == 3
        assert "half-plane floor" in r.stderr

    def test_grid_output_and_determinism(self, jhat20, tmp_path):
        # one run through the module entry point in a fresh interpreter, one in this process
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mfun", jhat20, "--grid", "-1:1:3,1:2:2", "--out"]
        r = subprocess.run([sys.executable, "-m", "nevtrans.cli", *args, str(out1)], capture_output=True, text=True)
        assert r.returncode == 0
        assert run_cli(*args, str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().strip().split("\n")) == 7

    def test_lambda_and_grid_exclusive(self, jhat20):
        r = run_cli("mfun", jhat20, "--lambda", "0,2", "--grid", "0:1:2,1:2:2")
        assert r.returncode == 2

    def test_bad_lambda_format(self, jhat20):
        r = run_cli("mfun", jhat20, "--lambda", "2i")
        assert r.returncode == 2

    @pytest.mark.parametrize("option, text", [
        ("--lambda", "nan,1"), ("--lambda", "inf,1"), ("--lambda", "0,-inf"),
        ("--grid", "nan:1:3,0.5:1:2"), ("--grid", "0:1:3,0.5:inf:2"), ("--grid", "-1e308:1e308:3,1:2:2"),
    ])
    def test_non_finite_lambda_is_a_parse_error(self, jhat20, option, text):
        r = run_cli("mfun", jhat20, option, text)
        assert r.returncode == 2
        assert "finite" in r.stderr

    def test_grid_needs_a_positive_floor(self, jhat20):
        assert run_cli("mfun", jhat20, "--grid", "0:1:2,1:2:2", "--floor", "0").returncode == 2
        # a single point may sit on the real axis off the spectrum
        r = run_cli("mfun", jhat20, "--lambda", "3,0", "--floor", "0")
        assert r.returncode == 0
        assert r.stdout.split("\n")[1].startswith("3.0,0.0,")

    @pytest.mark.parametrize("option, text", [("--lambda", "0.4,0.3"), ("--grid", "0:1:2,1:2:2")])
    def test_a_nan_floor_is_a_parse_error(self, jhat20, option, text):
        # x < nan is False: a NaN floor would switch the half-plane test off
        r = run_cli("mfun", jhat20, option, text, "--floor", "nan")
        assert r.returncode == 2
        assert r.stdout == "" and r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    @pytest.mark.parametrize("re", ["0", repr(2**0.5)])
    def test_a_pole_is_a_precondition_error(self, tmp_path, re):
        # lambda = 0 zeroes a first-level pivot; sqrt(2) leaves a solve residual of 0.25
        p = tmp_path / "jhat3.json"
        p.write_text(build_Jhat0(1, 3).to_json())
        r = run_cli("mfun", str(p), "--lambda", f"{re},0", "--floor", "0")
        assert r.returncode == 3
        assert r.stdout == "" and r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    def test_large_grid_is_evaluated_in_chunks(self, tmp_path, monkeypatch):
        p = tmp_path / "j.json"
        p.write_text(build_Jhat0(3, 30).to_json())
        args = ["mfun", str(p), "--grid", "-1:1:7,0.5:2:3"]
        whole = run_cli(*args)
        monkeypatch.setattr(cli, "_CHUNK_ENTRIES", 2 * 30 * 9)  # two points per m_resolvent and m_cf call
        chunked = run_cli(*args)
        assert whole.returncode == chunked.returncode == 0
        assert "max discrepancy between algorithms" in chunked.stderr
        assert (whole.stdout, whole.stderr) == (chunked.stdout, chunked.stderr)

    def test_both_routes_get_bounded_chunks(self, tmp_path, monkeypatch):
        p = tmp_path / "j.json"
        p.write_text(build_Jhat0(3, 30).to_json())
        sizes = {"m_resolvent": [], "m_cf": []}
        for name in sizes:
            def spy(J, lam, route=getattr(cli, name), name=name):
                sizes[name].append(np.size(lam))
                return route(J, lam)
            monkeypatch.setattr(cli, name, spy)
        monkeypatch.setattr(cli, "_CHUNK_ENTRIES", 2 * 30 * 9)  # two of the 21 points per call
        assert run_cli("mfun", str(p), "--grid", "-1:1:7,0.5:2:3").returncode == 0
        assert sizes == {"m_resolvent": [2] * 10 + [1], "m_cf": [2] * 10 + [1]}


class TestIterate:
    def test_zero_start_converges(self, tmp_path):
        out = tmp_path / "trace.csv"
        r = run_cli("iterate", "zero", "--lambda", "0,2", "--n", "10", "--out", str(out))
        assert r.returncode == 0
        last = out.read_text().strip().split("\n")[-1].split(",")
        assert float(last[3]) < 1e-6
        assert "final residual" in r.stderr

    def test_csv_format(self):
        r = run_cli("iterate", "zero", "--lambda", "0,2", "--n", "4")
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "n,re_value00,im_value00,residual,ratio"
        assert len(lines) == 5
        row = lines[2].split(",")
        assert int(row[0]) == 2
        assert abs(float(row[2]) - 0.4) < 1e-15
        assert lines[1].split(",")[-1] == "nan"
        # shortest round-trip numbers, as mfun writes them
        assert all(cli._fmt(float(x)) == x for line in lines[1:] for x in line.split(",")[1:])

    def test_ratio_is_the_one_verify_contraction_reports(self):
        r = run_cli("iterate", "zero", "--lambda", "0,2", "--n", "40")
        ratio = float(r.stderr.split("max contraction ratio: ")[1])
        assert f"max ratio {ratio:.6f} (bound 0.25)" in run_cli("verify", "contraction").stdout

    def test_a_lambda_near_the_float_maximum_has_a_finite_residual(self):
        # lam + sqrt(lam^2 - 4) overflows there; the fixed point is about -1/lam
        r = run_cli("iterate", "zero", "--lambda", "1e308,1e308", "--n", "3")
        assert r.returncode == 0
        assert r.stderr.startswith("final residual: ")
        assert 0.0 <= float(r.stderr.split("final residual: ")[1].split("\n")[0]) < 1e-300

    @pytest.mark.parametrize("dim", ["1", "3"])
    def test_a_lambda_near_the_float_maximum_iterates_without_a_warning(self, dim):
        # the iterates are -(1 - i)/2e308, which numpy's division and LAPACK flushed to zero,
        # and the d x d products with lam flagged spurious overflows; a fresh interpreter shows
        # every warning on stderr
        args = ["iterate", "zero", "--lambda", "1e308,1e308", "--n", "2", "--dim", dim]
        r = subprocess.run([sys.executable, "-m", "nevtrans.cli", *args], capture_output=True, text=True)
        assert r.returncode == 0
        assert [line.split(":")[0] for line in r.stderr.splitlines()] == ["final residual", "max contraction ratio"]
        rows = [line.split(",") for line in r.stdout.splitlines()[1:]]
        assert [(float(row[1]), float(row[2])) for row in rows] == [(-5e-309, 5e-309)] * 2

    def test_a_zero_start_prints_the_same_bytes_in_every_dimension(self):
        # zero(3)'s value is 0 I_3, which the iteration runs as its 1 x 1 value 0; a residual
        # taken by an SVD of the 3 x 3 error read 0.5204895019658718 where the modulus reads ...733
        one, three = (run_cli("iterate", "zero", "--lambda", "0.3,0.05", "--n", "30", "--dim", dim) for dim in "13")
        assert one.returncode == three.returncode == 0
        assert (one.stdout, one.stderr) == (three.stdout, three.stderr)
        assert "final residual: 0.5204895019658733\n" in three.stderr

    def test_one_step_has_no_ratio(self):
        r = run_cli("iterate", "zero", "--lambda", "0,2", "--n", "1")
        assert r.returncode == 0
        assert "max contraction ratio: nan\n" in r.stderr

    @pytest.mark.parametrize("doc", [
        # M(2i) + 2i = 0: the first step inverts a zero matrix
        {"variant": "measure", "dim": 1, "A": [[[0.0, -2.0]]], "B": [[[0.0, 0.0]]], "atoms": []},
        # lambda = 2i is an eigenvalue of T: the start has a pole there
        {"variant": "realization", "dim": 1, "T": [[[0.0, 2.0]]], "K": [[[1.0, 0.0]]]},
    ])
    def test_a_lenient_start_that_cannot_be_iterated_is_a_precondition_error(self, tmp_path, doc):
        p = tmp_path / "start.json"
        p.write_text(json.dumps(doc))
        r = run_cli("iterate", str(p), "--lambda", "0,2", "--n", "3")
        assert r.returncode == 3
        assert r.stdout == ""
        errors = [line for line in r.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: iteration failed")

    def test_another_fault_in_the_iteration_propagates(self, monkeypatch):
        def broken(F, lam, n):
            raise TypeError("not a pole or a singular step")

        monkeypatch.setattr(cli, "iterate_gamma_hat", broken)
        r = RUNNER.invoke(main, ["iterate", "zero", "--lambda", "0,2", "--n", "3"])
        assert isinstance(r.exception, TypeError)

    def test_zero_steps_usage_error(self):
        r = run_cli("iterate", "zero", "--lambda", "0,2", "--n", "0")
        assert r.returncode == 2

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_non_positive_dim_usage_error(self, dim):
        r = run_cli("iterate", "zero", "--lambda", "0,2", "--n", "3", "--dim", dim)
        assert r.returncode == 2
        assert "--dim" in r.stderr

    def test_lambda_within_the_cut_tolerance_is_a_precondition_error(self):
        # Im lambda != 0, but the fixed point's square root rejects a point this close to [-2, 2]
        r = run_cli("iterate", "zero", "--lambda", "0,1e-320", "--n", "3")
        assert r.returncode == 3
        assert r.stdout == ""
        errors = [line for line in r.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "cut" in errors[0]

    def test_real_lambda_precondition(self):
        r = run_cli("iterate", "zero", "--lambda", "1,0", "--n", "5")
        assert r.returncode == 3

    def test_non_finite_lambda_is_a_parse_error(self):
        r = run_cli("iterate", "zero", "--lambda", "nan,1", "--n", "5")
        assert r.returncode == 2
        assert "finite" in r.stderr

    def test_invalid_start_warns_but_proceeds(self, tmp_path):
        doc = {
            "variant": "measure",
            "dim": 1,
            "A": [[[0.0, 0.0]]],
            "B": [[[0.0, 0.0]]],
            "atoms": [
                {"t": 0.0, "W": [[[1.0, 0.0]]]},
                {"t": 0.5, "W": [[[-2.0, 0.0]]]},
            ],
        }
        p = tmp_path / "bad_start.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "trace.csv"
        r = run_cli("iterate", str(p), "--lambda", "0,2", "--n", "8", "--out", str(out))
        assert r.returncode == 0
        assert "warning" in r.stderr.lower()
        assert len(out.read_text().strip().split("\n")) == 9

    def test_an_unevaluable_kernel_test_warns(self, monkeypatch, capsys):
        def pole(F, S):
            raise PoleError("at a pole")

        monkeypatch.setattr(cli, "nevanlinna_gram", pole)
        cli._nevanlinna_warning_check(random_nevanlinna(1, 1, 3), 2j)
        assert "could not be evaluated" in capsys.readouterr().err

    def test_a_fault_in_the_kernel_test_propagates(self, monkeypatch):
        def broken(F, S):
            raise TypeError("not a pole or a bad value")

        monkeypatch.setattr(cli, "nevanlinna_gram", broken)
        with pytest.raises(TypeError):
            cli._nevanlinna_warning_check(random_nevanlinna(1, 1, 3), 2j)

    def test_declared_dim_mismatch_is_a_parse_error(self, tmp_path):
        doc = json.loads(random_nevanlinna(1, 1, 3).to_json())
        doc["dim"] = 5
        p = tmp_path / "dim_start.json"
        p.write_text(json.dumps(doc))
        r = run_cli("iterate", str(p), "--lambda", "0,2", "--n", "3")
        assert r.returncode == 2
        assert "dim" in r.stderr


class TestKac:
    def test_free_schroedinger_lengths(self, jhat20, tmp_path):
        out = tmp_path / "h.json"
        r = run_cli("kac", jhat20, "--m", "10", "--out", str(out))
        assert r.returncode == 0
        doc = json.loads(out.read_text())
        bp = np.array(doc["breakpoints"])
        assert np.max(np.abs(np.diff(bp) - 1.0)) < 1e-12
        assert "expected [[0,0],[0,1]]: ok" in r.stderr

    def test_a0_one_length(self, tmp_path):
        from nevtrans.jacobi import BlockJacobi

        a = [1.0] + [0.0] * 9
        J = BlockJacobi.of([[[x]] for x in a], [[[1.0]] for _ in range(9)])
        p = tmp_path / "a01.json"
        p.write_text(J.to_json())
        r = run_cli("kac", str(p), "--m", "5")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        lengths = np.diff(doc["breakpoints"])
        assert abs(lengths[1] - 2.0) < 1e-12

    def test_off_diagonal_phases_are_dropped(self, tmp_path):
        # b and |b| are unitarily equivalent, so they give the same m and the same Hamiltonian
        outputs = []
        for b in ([-1.0, 1j], [1.0, 1.0]):
            p = tmp_path / "j.json"
            p.write_text(BlockJacobi.of([[[0.5]], [[0.0]], [[-0.3]]], [[[x]] for x in b]).to_json())
            r = run_cli("kac", str(p), "--m", "3")
            assert r.returncode == 0
            outputs.append(r.stdout)
        assert outputs[0] == outputs[1]

    def test_block_input_unsupported(self, tmp_path):
        p = tmp_path / "d2.json"
        p.write_text(build_J0(2, 4).to_json())
        r = run_cli("kac", str(p), "--m", "3")
        assert r.returncode == 4

    def test_too_many_intervals(self, jhat2):
        r = run_cli("kac", jhat2, "--m", "50")
        assert r.returncode == 3

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_non_positive_interval_count_usage_error(self, jhat2, m):
        r = run_cli("kac", jhat2, "--m", m)
        assert r.returncode == 2
        assert "--m" in r.stderr

    def test_degenerate_step_is_a_precondition_error(self, tmp_path, anderson_coefficients):
        # Anderson-type coefficients: the interval lengths grow until an angle step degenerates at j = 127
        p = tmp_path / "anderson.json"
        p.write_text(BlockJacobi.of(*anderson_coefficients).to_json())
        r = run_cli("kac", str(p), "--m", "200")
        assert r.returncode == 3
        assert r.stderr == "error: degenerate angle step at j=127\n"

    @pytest.mark.parametrize("b0", [1e200, 1e-200])
    def test_off_diagonal_whose_square_leaves_the_float_range(self, tmp_path, b0):
        # finite coefficients that BlockJacobi accepts, where b_0^2 overflows or underflows
        p = tmp_path / "j.json"
        p.write_text(BlockJacobi.of([0.3, 0.0, 0.0], [b0, 1.0]).to_json())
        r = run_cli("kac", str(p), "--m", "3")
        assert r.returncode == 3
        assert r.stderr == "error: degenerate angle step at j=1\n"


class TestNonFiniteInput:
    def test_nan_block_is_a_parse_error(self, tmp_path):
        doc = json.loads(build_Jhat0(1, 3).to_json())
        doc["b"][0][0][0][0] = float("nan")
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(doc))
        assert "NaN" in p.read_text()
        for args in (["mfun", str(p), "--lambda", "0,1"], ["kac", str(p), "--m", "2"]):
            r = run_cli(*args)
            assert r.returncode == 2
            assert "finite" in r.stderr

    def test_nan_in_a_realization_start_is_a_parse_error(self, tmp_path):
        doc = json.loads(random_nevanlinna(1, 1, 3).to_json())
        doc["T"][0][0][0] = float("nan")
        p = tmp_path / "nan_start.json"
        p.write_text(json.dumps(doc))
        r = run_cli("iterate", str(p), "--lambda", "0,2", "--n", "3")
        assert r.returncode == 2
        assert "finite" in r.stderr


class TestVerify:
    def test_known_suite_passes(self):
        r = run_cli("verify", "fixed-points")
        assert r.returncode == 0
        assert r.stdout.startswith("PASS fixed-points")

    def test_unknown_suite_lists(self):
        r = run_cli("verify", "bogus")
        assert r.returncode == 3
        assert "available suites" in r.stdout
        assert "kac-canonical" in r.stdout

    def test_no_suite_lists(self):
        r = run_cli("verify")
        assert r.returncode == 0
        assert "available suites" in r.stdout


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", [
        ["mfun", "{jacobi}", "--lambda", "0,1"],
        ["iterate", "zero", "--lambda", "0,1", "--n", "3"],
        ["kac", "{jacobi}", "--m", "2"],
    ], ids=["mfun", "iterate", "kac"])
    def test_unwritable_out_path_is_one_error_line(self, command, jhat20, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        r = run_cli(*[arg.format(jacobi=jhat20) for arg in command], "--out", str(out))
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: cannot write {out}") and r.stderr.count("\n") == 1
