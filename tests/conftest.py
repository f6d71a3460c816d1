"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def pools(monkeypatch):
    """Thread counts of the pools that rng.share starts."""
    sizes = []
    real = concurrent.futures.ThreadPoolExecutor

    class Counted(real):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return sizes
