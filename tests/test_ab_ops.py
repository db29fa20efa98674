"""The loader of tools/ab_ops.py: two copies of one tree import as distinct packages."""

import importlib.util
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC, TOOL = os.path.join(ROOT, "src"), os.path.join(ROOT, "tools", "ab_ops.py")


def test_two_copies_of_one_tree_are_distinct_and_give_equal_bits(tmp_path):
    spec = importlib.util.spec_from_file_location("ab_ops", TOOL)
    ab_ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_ops)
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
