"""Session setup: hypothesis draws the same examples in every run and keeps no
example database, so a test run's result depends on the code alone."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
