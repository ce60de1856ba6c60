"""Every @given test draws the same examples on every run: derandomized, and
without replaying examples saved in a local .hypothesis/ database.  No
per-example deadline: a run's speed varies with the load on the machine."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                           deadline=None)
settings.load_profile("deterministic")
