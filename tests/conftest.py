"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a tier-1 result
# never depends on the seed of the day; no example database is read or
# written, and slow examples are not failures.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
