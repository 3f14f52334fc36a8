"""Shared pytest setup: a deterministic, bounded hypothesis profile.

Property tests draw the same examples on every run (``derandomize``), never
fail on timing (``deadline=None``) and stay within a fixed example budget,
so the suite's outcome and running time do not vary from run to run.
"""

try:
    from hypothesis import settings
except ImportError:  # hypothesis ships with the ``test`` extra only
    settings = None

if settings is not None:
    settings.register_profile("utilsched", derandomize=True, deadline=None, max_examples=150)
    settings.load_profile("utilsched")
