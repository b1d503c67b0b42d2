"""Hypothesis profiles for the test suite.

``deterministic`` (the default) derives every property test's examples from
the test itself, so each run checks the same inputs and a failure repeats.
``randomized`` draws fresh examples on every run, to explore beyond them:

    python -m pytest --hypothesis-profile=randomized
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("deterministic")
