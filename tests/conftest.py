"""Every test under tests/ runs with warnings as errors, so a socket or
file a test leaves open (PytestUnraisableExceptionWarning) fails it.
perfbench/ is outside this directory and keeps the default filters."""
from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(HERE):
            item.add_marker(pytest.mark.filterwarnings("error"))
