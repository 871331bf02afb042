"""Shared test settings: every hypothesis test draws the same examples on every run.

A test's own ``@settings`` (its ``max_examples``, say) inherits the rest
from the profile loaded here, as the tests are collected after it.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
