"""tools/ab_ops.py: two copies of one tree import as distinct packages, the round-ratio summary, the
operations around op_ms.p50 and the set-up pairs' report."""

import importlib.util
import os
import re
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC, TOOL = os.path.join(ROOT, "src"), os.path.join(ROOT, "tools", "ab_ops.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("ab_ops", TOOL)
    ab_ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_ops)
    return ab_ops


def test_ratio_summary_gives_the_median_and_quartiles_of_the_round_ratios():
    ab_ops = _load_tool()
    base, new = [1.0, 2.0, 4.0, 1.0, 5.0], [0.9, 1.6, 4.0, 0.7, 6.0]  # ratios 0.9, 0.8, 1, 0.7, 1.2
    assert ab_ops.ratio_summary(base, new) == "round ratio new/base: median 0.900, quartiles [0.800, 1.000] over 5 rounds"
    assert ab_ops.ratio_summary([2.0], [1.0]) == "round ratio new/base: median 0.500, quartiles [0.500, 0.500] over 1 rounds"


def test_p50_summary_gives_the_median_over_all_operations_and_its_ratio():
    ab_ops = _load_tool()
    # two rounds of a cheap and a dear operation: the median of all four falls between the two
    # classes, 21 and 20 ms, where neither operation's own median (11 and 32 ms, 9 and 32) lies
    base, new = [0.010, 0.030, 0.012, 0.034], [0.008, 0.030, 0.010, 0.034]
    assert ab_ops.p50_summary(base, new) == "op_ms.p50: base 21.00, new 20.00, new/base 0.952"
    assert ab_ops.p50_summary([0.002], [0.001]) == "op_ms.p50: base 2.00, new 1.00, new/base 0.500"


def test_p50_sides_name_the_operations_around_each_median():
    ab_ops = _load_tool()
    # the p50_summary example with labels: both medians fall between the cheap and the dear operation
    base = [(0.010, "cheap"), (0.030, "dear"), (0.012, "cheap"), (0.034, "dear")]
    new = [(0.008, "cheap"), (0.030, "dear"), (0.010, "cheap"), (0.034, "dear")]
    assert ab_ops.p50_sides(base, new) == ("op_ms.p50 lies between: base cheap 12.00 and dear 30.00; "
                                           "new cheap 10.00 and dear 30.00")
    # an odd count: the median is one operation, named on both sides; equal times sort by label
    odd = [(0.005, "b"), (0.002, "c"), (0.005, "a")]
    assert ab_ops.p50_sides(odd, odd[:1]) == "op_ms.p50 lies between: base a 5.00 and a 5.00; new b 5.00 and b 5.00"


def test_two_copies_of_one_tree_are_distinct_and_give_equal_bits(tmp_path):
    ab_ops = _load_tool()
    try:
        base, new = ab_ops.load_trees(SRC, SRC, str(tmp_path))
        assert base is not new and base.transforms is not new.transforms
        assert base.gamma_hat.__module__ == "nevtrans_base.transforms"
        lam = np.array([0.3 + 1.2j, -2.0 - 0.4j])
        for d in (1, 3):
            M = base.evaluate(base.random_nevanlinna(5, d, 6), lam)
            assert np.array_equal(base.gamma_hat(M, lam), new.gamma_hat(M, lam))
            assert np.array_equal(base.gamma_hat(M[0], lam[0]), new.gamma_hat(M[0], lam[0]))
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in ab_ops.TREES]:
            del sys.modules[name]


def test_setup_pairs_print_each_median_and_the_pair_ratio(capsys, tmp_path):
    ab_ops = _load_tool()
    assert ab_ops.main([SRC, SRC, "--workload", "jacobi-grid", "--seed", "1", "--setup", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"jacobi-grid seed 1, 1 set-up pairs; base {SRC}, new {SRC}"
    assert re.fullmatch(r"median set-up s: base \d+\.\d{3}, new \d+\.\d{3}, new/base \d+\.\d{3}", lines[1])
    assert re.fullmatch(r"pair ratio new/base: median (\d+\.\d{3}), quartiles \[\1, \1\] over 1 pairs", lines[2])
    assert len(lines) == 3
    # a tree whose nevtrans fails to import, ahead of any installed copy on the path: the tool exits 1
    (tmp_path / "nevtrans").mkdir()
    (tmp_path / "nevtrans" / "__init__.py").write_text("raise ImportError('broken tree')\n")
    assert ab_ops.main([str(tmp_path), SRC, "--workload", "jacobi-grid", "--seed", "1", "--setup", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("failed: nevtrans_base set-up exited with code 1")
