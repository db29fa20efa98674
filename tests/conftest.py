import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_subprocess_path():
    """The CLI tests start ``python -m nevtrans.cli``; let it import this checkout uninstalled."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        yield
