from __future__ import annotations

import pathlib

import pytest

from efl.generators import example_instance
from support import random_corpus

DATA_DIR = pathlib.Path(__file__).parent / "data"


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
