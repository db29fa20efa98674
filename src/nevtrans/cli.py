"""Command-line surface: m-function export, fixed-point iteration, the
Jacobi-to-Hamiltonian conversion, and named verification suites.

Exit codes: 0 success, 1 assertion failure, 2 parse error, 3 precondition
violation, 4 unsupported input.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from .acceptance import SUITES
from .errors import CutError, DegenerateStepError, PoleError
from .herglotz import RealizedFunction, SampleSet, is_psd_gram, nevanlinna_gram
from .jacobi import BlockJacobi, m_cf, m_resolvent
from .kac import StepHamiltonian, evaluate_H, kac_algorithm
from .transforms import iterate_gamma_hat

EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_UNSUPPORTED = 4

#: default minimum |Im lambda| of the mfun points
DEFAULT_FLOOR = 1e-6

#: points x N x d^2 per m_resolvent or m_cf call of mfun; each route holds at
#: most about a dozen such stacks of complex numbers, so this bounds its memory
#: to about 6 MB
_CHUNK_ENTRIES = 2**15


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _fmt(x: float) -> str:
    """Shortest round-trip decimal, never more than 17 significant digits."""
    return repr(float(x))


def _axis(text: str, grid: bool) -> np.ndarray:
    if not grid:
        return np.array([float(text)])
    lo, hi, n = text.split(":")
    if int(n) < 1:
        raise ValueError("grid counts must be >= 1")
    with np.errstate(over="ignore", invalid="ignore"):  # the caller rejects non-finite points
        return np.linspace(float(lo), float(hi), int(n))


def _parse_lambdas(text: str, grid: bool) -> np.ndarray:
    """The points of ``--lambda RE,IM`` (one) or ``--grid re0:re1:n,im0:im1:n``
    (real part major), as a 1-d complex array with finite parts."""
    option, form = ("--grid", "re0:re1:n,im0:im1:n") if grid else ("--lambda", "RE,IM")
    try:
        res, ims = (_axis(part, grid) for part in text.split(","))
    except ValueError:
        _fail(EXIT_PARSE, f"{option} expects {form}, got {text!r}")
    lams = np.empty((res.size, ims.size), dtype=complex)
    lams.real, lams.imag = res[:, None], ims
    if not np.all(np.isfinite(lams)):
        _fail(EXIT_PARSE, f"{option} needs finite values, got {text!r}")
    return lams.ravel()


def _load_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot read {path}: {exc}")


def _load_jacobi(path: str) -> BlockJacobi:
    try:
        return BlockJacobi.from_json(_load_text(path))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        _fail(EXIT_PARSE, f"invalid Jacobi JSON: {exc}")


def _write_text(path, text: str):
    if path is None or path == "-":
        click.echo(text, nl=False)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(EXIT_PARSE, f"cannot write {path}: {exc}")


@click.group()
def main():
    """Numerical toolkit for Nevanlinna-function transformations, block Jacobi
    m-functions, and canonical-system Hamiltonians."""


@main.command("mfun")
@click.argument("jacobi_file", type=click.Path())
@click.option("--lambda", "lam_text", default=None, help="single point RE,IM")
@click.option("--grid", "grid_text", default=None, help="re0:re1:n,im0:im1:n")
@click.option("--floor", type=float, default=DEFAULT_FLOOR, show_default=True,
              help="minimum |Im lambda| allowed (positive for --grid)")
@click.option("--out", "out_path", default=None, help="CSV output path (default stdout)")
def cmd_mfun(jacobi_file, lam_text, grid_text, floor, out_path):
    """Evaluate the m-function of a block Jacobi matrix on points or a grid.

    Runs both the direct block-tridiagonal solve and the continued-fraction
    recursion; rows come from the direct solve and the max discrepancy
    between the two algorithms is printed.
    """
    J = _load_jacobi(jacobi_file)
    if (lam_text is None) == (grid_text is None):
        _fail(EXIT_PARSE, "exactly one of --lambda / --grid is required")
    if np.isnan(floor):  # x < nan is False: the half-plane test would pass every point
        _fail(EXIT_PARSE, "--floor must be a number, not NaN")
    if grid_text is not None and not floor > 0:
        _fail(EXIT_PARSE, "--floor must be positive for --grid")
    lams = _parse_lambdas(lam_text if grid_text is None else grid_text, grid=grid_text is not None)
    if np.min(np.abs(lams.imag)) < floor:
        _fail(EXIT_PRECONDITION, "grid violates half-plane floor")
    step = max(1, _CHUNK_ENTRIES // (J.N * J.d * J.d))
    try:
        M1, M2 = (np.concatenate([route(J, lams[i:i + step]) for i in range(0, lams.size, step)])
                  for route in (m_resolvent, m_cf))
    except PoleError as exc:  # only a real lambda (--floor 0) meets a pole or a singular pivot
        _fail(EXIT_PRECONDITION, str(exc))
    # one re, im column pair per complex entry: lambda, then M row-major
    header = ",".join(f"re_{c},im_{c}" for c in ["lambda"] + [f"m{i}{j}" for i in range(J.d) for j in range(J.d)])
    rows = [",".join(_fmt(x) for z in (lam, *M.ravel()) for x in (z.real, z.imag)) for lam, M in zip(lams, M1)]
    _write_text(out_path, "\n".join([header] + rows) + "\n")
    click.echo(f"max discrepancy between algorithms: {_fmt(np.max(np.abs(M1 - M2)))}", err=True)


def _nevanlinna_warning_check(F: RealizedFunction, lam: complex):
    rng = np.random.default_rng(0)
    pts = [complex(rng.uniform(-2, 2), rng.uniform(0.3, 2)) for _ in range(6)]
    vecs = [rng.standard_normal(F.dim) + 1j * rng.standard_normal(F.dim) for _ in range(6)]
    try:
        G = nevanlinna_gram(F, SampleSet.of(pts, vecs))
        if not is_psd_gram(G):
            click.echo(
                "warning: starting function fails the Nevanlinna kernel test; "
                "iterating anyway", err=True,
            )
    except (ArithmeticError, ValueError):  # poles, singular solves, bad shapes; a bug propagates
        click.echo("warning: Nevanlinna kernel test could not be evaluated", err=True)


@main.command("iterate")
@click.argument("start")
@click.option("--lambda", "lam_text", required=True, help="evaluation point RE,IM")
@click.option("--n", "n_steps", type=click.IntRange(min=1), required=True, help="number of iteration steps")
@click.option("--dim", type=click.IntRange(min=1), default=1, show_default=True,
              help="matrix dimension when START is 'zero'")
@click.option("--out", "out_path", default=None, help="CSV output path (default stdout)")
def cmd_iterate(start, lam_text, n_steps, dim, out_path):
    """Iterate M -> -(M + lambda)^{-1} from START ('zero' or a function JSON file)."""
    lam = complex(_parse_lambdas(lam_text, grid=False)[0])
    if lam.imag == 0.0:
        _fail(EXIT_PRECONDITION, "iteration requires Im lambda != 0")
    if start == "zero":
        F = RealizedFunction.zero(dim)
    else:
        try:
            # parsed leniently: a start violating the Nevanlinna invariants is
            # flagged by the kernel test below but still iterated
            F = RealizedFunction.from_json(_load_text(start), validate=False)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            _fail(EXIT_PARSE, f"invalid function JSON: {exc}")
        _nevanlinna_warning_check(F, lam)
    try:
        trace = iterate_gamma_hat(F, lam, n_steps)
    # a lenient start met a pole or a singular step, or lambda lies within CUT_TOL of the fixed point's cut
    except (PoleError, CutError, np.linalg.LinAlgError) as exc:
        _fail(EXIT_PRECONDITION, f"iteration failed: {exc}")
    # one row per step: the (0, 0) entry of the iterate, its residual, and its ratio to the step before
    ratios = np.concatenate([[np.nan], trace.ratios])
    rows = [",".join([str(k)] + [_fmt(x) for x in (v[0, 0].real, v[0, 0].imag, r, q)])
            for k, (v, r, q) in enumerate(zip(trace.values, trace.residuals, ratios), start=1)]
    _write_text(out_path, "\n".join(["n,re_value00,im_value00,residual,ratio"] + rows) + "\n")
    click.echo(f"final residual: {_fmt(trace.residuals[-1])}", err=True)
    click.echo(f"max contraction ratio: {_fmt(trace.max_ratio if n_steps > 1 else np.nan)}", err=True)


@main.command("kac")
@click.argument("jacobi_file", type=click.Path())
@click.option("--m", "m_intervals", type=click.IntRange(min=1), required=True, help="number of Hamiltonian intervals")
@click.option("--out", "out_path", default=None, help="JSON output path (default stdout)")
def cmd_kac(jacobi_file, m_intervals, out_path):
    """Convert scalar Jacobi coefficients to a step Hamiltonian."""
    J = _load_jacobi(jacobi_file)
    if J.d != 1:
        _fail(EXIT_UNSUPPORTED, "the coefficient-to-Hamiltonian conversion needs scalar (d=1) input")
    # the diagonal is Hermitian, so real; a diagonal unitary maps each b_k to |b_k| and keeps m.
    # hypot rounds |b_k| as abs() of one number does; np.abs of a complex array may not
    b = J.b[:, 0, 0]
    a, b = J.a[:, 0, 0].real.tolist(), np.hypot(b.real, b.imag).tolist()
    try:
        H = kac_algorithm(a, b, m_intervals)
    except (ValueError, DegenerateStepError) as exc:
        _fail(EXIT_PRECONDITION, str(exc))
    _write_text(out_path, H.to_json() + "\n")
    first = evaluate_H(H, 0.0)
    ok = np.max(np.abs(first - np.array([[0.0, 0.0], [0.0, 1.0]]))) < 1e-12
    click.echo(
        "first interval H = [[{}, {}], [{}, {}]] (expected [[0,0],[0,1]]: {})".format(
            _fmt(first[0, 0]), _fmt(first[0, 1]), _fmt(first[1, 0]), _fmt(first[1, 1]),
            "ok" if ok else "MISMATCH",
        ),
        err=True,
    )
    if not ok:
        sys.exit(EXIT_ASSERTION)


@main.command("verify")
@click.argument("suite", required=False)
def cmd_verify(suite):
    """Run one named verification suite (or list the available ones)."""
    if suite is None or suite not in SUITES:
        if suite is not None:
            click.echo(f"unknown suite: {suite}", err=True)
        click.echo("available suites:")
        for name in SUITES:
            click.echo(f"  {name}")
        sys.exit(0 if suite is None else EXIT_PRECONDITION)
    ok, detail = SUITES[suite]()
    click.echo(f"{'PASS' if ok else 'FAIL'} {suite}: {detail}")
    sys.exit(0 if ok else EXIT_ASSERTION)


if __name__ == "__main__":
    main()
