"""Every @given test draws the same examples on every run of the same tree
and the same selection of tests: derandomized, and without replaying
examples saved in a local .hypothesis/ database.  Hypothesis also draws
literals it collects from the local modules loaded at the time (those of
the package and of the tests), so a changed literal in any of them, or
another selection of tests, can change the draws.  No per-example
deadline: a run's speed varies with the load on the machine."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                           deadline=None)
settings.load_profile("deterministic")
