import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"


@pytest.fixture(autouse=True)
def _child_interpreters_find_src(monkeypatch):
    # pyproject's pytest pythonpath reaches this process only; CLI tests start
    # `python -m mondrian` children, which read the package path from the environment
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(ROOT / "src"), inherited])))


@pytest.fixture(scope="session")
def bfile_path():
    return DATA_DIR / "b276523.txt"
