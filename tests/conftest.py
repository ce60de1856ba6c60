"""Every @given test draws the same examples on every run: derandomized, and
without replaying examples saved in a local .hypothesis/ database."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
