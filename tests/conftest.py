"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def child_env() -> dict[str, str]:
    """The environment for a child Python process: this checkout's src/
    is its only PYTHONPATH entry, so it imports the package under test
    whatever the caller's PYTHONPATH holds."""
    return {**os.environ, "PYTHONPATH": str(SRC)}
