"""Settings shared by every test module.

Hypothesis runs every property test without a per-example deadline:
several build polynomials or brute tables whose time varies with the
host's load, and a deadline would fail them on a slow run, not on a
wrong result.  Each test's @settings(...) keeps only its max_examples
and takes the rest from this profile.  A settings object copies the
loaded profile when it is created, at a test module's import, so the
profile is loaded here, before pytest imports any test module.
"""

from hypothesis import settings

settings.register_profile("bivorder", deadline=None)
settings.load_profile("bivorder")
