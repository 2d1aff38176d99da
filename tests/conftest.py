"""Hypothesis draws the same examples on every run: a test's outcome
depends on the code under test, never on the draw or on examples saved
by an earlier run."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
