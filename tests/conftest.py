"""Shared pytest configuration.

Property tests run under a derandomized hypothesis profile with no
deadline, so every run draws the same examples and a slow shared machine
cannot fail a test on timing.
"""

from hypothesis import settings

settings.register_profile("ggm", derandomize=True, deadline=None, database=None)
settings.load_profile("ggm")
