import pytest

from jumpfilter import fanout


@pytest.fixture
def set_cpus(monkeypatch):
    """A function that gives this process n usable CPUs: that affinity, and
    no CPU quota."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(fanout.os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        monkeypatch.setattr(fanout, "CPU_QUOTA_FILES", ())

    return set_cpus
