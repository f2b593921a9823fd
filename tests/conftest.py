"""Shared test configuration.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples and a failure repeats exactly; without a deadline,
because per-example timing on a shared machine says nothing about the code;
and with few examples, to keep the suite quick.
"""

from hypothesis import settings

settings.register_profile(
    "nsbf", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("nsbf")
