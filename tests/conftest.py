"""Test-suite settings: every hypothesis test draws the same examples on each run.

`derandomize=True` seeds each test's examples from the test itself, and
`database=None` keeps failing examples of earlier runs from being replayed,
so a tier-1 run depends on the code alone.
"""
from hypothesis import settings

settings.register_profile("tier-1", derandomize=True, database=None)
settings.load_profile("tier-1")
