from __future__ import annotations

import pathlib

import pytest

from efl.generators import example_instance
from support import random_corpus

DATA_DIR = pathlib.Path(__file__).parent / "data"

# When a Hypothesis test fails, the hypothesis plugin's report hook meets a
# DeprecationWarning about mypy_extensions.TypedDict; under ``-W error`` it
# ends the session in an INTERNALERROR and the tests after it go unreported.  A mark on
# each item ignores exactly that warning, where an ini ``filterwarnings``
# line would be overridden by ``-W error`` on the command line.
_TYPEDDICT_DEPRECATION = pytest.mark.filterwarnings(
    r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning"
)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(_TYPEDDICT_DEPRECATION)


@pytest.fixture
def example():
    return example_instance()


@pytest.fixture
def example_file() -> pathlib.Path:
    return DATA_DIR / "example6.efl"


@pytest.fixture
def gap_n8_file() -> pathlib.Path:
    return DATA_DIR / "gap_n8.efl"


@pytest.fixture
def sy2_statement_n6_file() -> pathlib.Path:
    return DATA_DIR / "sy2_statement_n6.efl"


@pytest.fixture(scope="session")
def corpus500():
    return random_corpus(500)
