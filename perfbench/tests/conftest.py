"""Make the benchmark modules and the checkout's hallq sources importable.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


@pytest.fixture(autouse=True)
def cache_dir(tmp_path, monkeypatch):
    """Each test gets its own empty table cache."""
    monkeypatch.setenv("HALLQ_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"
