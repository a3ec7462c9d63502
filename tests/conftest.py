import os

import pytest
from hypothesis import settings

from jumpfilter import fanout

# tier-1 draws the same examples on every run and keeps no example database,
# so a run's outcome depends on the code alone; HYPOTHESIS_PROFILE=explore
# draws fresh examples (a fixed draw that fails is a fault to fix, not skip).
# Each profile sets both fields: an unset one is taken from the profile loaded
# when it is registered, which would make "explore" derandomized too.
settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def set_cpus(monkeypatch):
    """A function that gives this process n usable CPUs: that affinity, and
    no CPU quota."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(fanout.os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        monkeypatch.setattr(fanout, "CPU_QUOTA_FILES", ())

    return set_cpus
