"""The CPU count that sizes both the replicate pool and the ingest pieces."""

from __future__ import annotations

import os


def _affinity_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
