import pytest

from bmland import optimize


@pytest.fixture(autouse=True)
def _fresh_worker_pool():
    """Shut the worker pool down after each test. Its workers see bmland as
    it was when the pool started, so a pool started while a test has a
    module attribute patched would carry the patch into the pooled calls of
    every later test."""
    yield
    optimize._shutdown_pool()
