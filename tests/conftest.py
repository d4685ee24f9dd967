"""Suite-wide settings.

Property tests draw the same examples on every run: hypothesis seeds its
generator from each test function instead of the clock, so a regression a
property test can catch fails every run, not only the runs that happen to
draw a revealing example.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
