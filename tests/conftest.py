import os

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_subprocess_path():
    """The CLI smoke test starts ``python -m nevtrans.cli``; let it import this checkout uninstalled."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        yield


@pytest.fixture()
def lam_grid():
    """A 3 x 4 array of lambda off the real axis, made of conjugate pairs."""
    rng = np.random.default_rng(12)
    lam = rng.uniform(-3, 3, 6) + 1j * rng.uniform(0.2, 3, 6)
    return np.stack([lam, lam.conj()], axis=-1).reshape(3, 4)


@pytest.fixture()
def stacked():
    """stacked(f, lams): f called at each lambda of lams on its own, stacked to lams.shape + f's shape."""
    def call(f, lams):
        vals = [f(lam) for lam in lams.ravel()]
        return np.array(vals).reshape(lams.shape + np.shape(vals[0]))
    return call
