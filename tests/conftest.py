"""Hypothesis profiles for the property tests.

Tier-1 is deterministic: the default ``tier1`` profile derandomizes
every ``@given`` test (examples derive from a hash of the test, not a
random seed) and keeps no example database, so two runs draw the same
examples.  Each test's own ``max_examples`` is unchanged.

``HYPOTHESIS_PROFILE=explore`` opts into fresh random examples on every
run, for exploration outside tier-1::

    HYPOTHESIS_PROFILE=explore PYTHONPATH=src python -m pytest tests/core
"""

import os

try:
    from hypothesis import settings
except ImportError:  # CI jobs that run no property test install only pytest
    settings = None

if settings is not None:
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.register_profile("explore", derandomize=False, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
