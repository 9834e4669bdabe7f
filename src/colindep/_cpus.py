"""The CPU count that sizes the replicate pool and the forked pieces, and the one fork pattern.

``ingest`` parses a large body, and ``jsonout`` renders a long pair
list, in forked pieces, one per CPU at most.  Both make and reap their
children through ``_forked`` and ``_reap``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import warnings
from typing import Callable, Iterable, Iterator


def _affinity_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork() -> int:
    # Python 3.12 and later warn that a fork with other threads running (as
    # BLAS's are) may deadlock the child; the children here take no lock that
    # another thread could hold: they run numpy's parser or format numbers
    # on their own data, call no BLAS and write no output of the parent's,
    # and the interpreter's locks and malloc's are reset in them at fork
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


@contextlib.contextmanager
def _forked(work: Iterable[Callable[[], int]]) -> Iterator[list[int] | None]:
    """One forked child per callable of ``work``; yields their pids, or None when no child runs.

    A child runs its callable with the garbage collector off, so no
    finalizer of the parent's runs in it, and leaves through
    ``os._exit`` with the callable's status (1 if it raises), skipping
    ``atexit`` handlers and unflushed output.  SIGINT stays blocked
    while the children are made, so Ctrl-C waits until each pid is
    recorded and orphans no child; the children keep it blocked.  The
    caller waits for the children in order with ``_reap``.  A failed
    fork kills and reaps the children made before it and yields None.
    No child outlives the block: on any exit the children not yet
    reaped are killed and reaped.
    """
    # signal is imported here, not with the module: its import costs about
    # 1.5 ms, and only a forked piece uses it
    import signal

    parent, children = os.getpid(), []
    try:
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for run in work:
                pid = _fork()
                if pid == 0:
                    status = 1
                    try:
                        gc.disable()
                        status = run()
                    finally:
                        os._exit(status)
                children.append(pid)
        except OSError:  # no fork
            _kill(children)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        yield children or None
    finally:
        if os.getpid() != parent:
            # a child that an exception reached before its callable took it
            os._exit(1)
        _kill(children)


def _kill(children: list[int]) -> None:
    """Kill and reap every child of ``children``, and empty it."""
    import signal

    while children:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(children[0], signal.SIGKILL)
            os.waitpid(children[0], 0)
        children.pop(0)


def _reap(children: list[int]) -> int:
    """Wait for the first child of ``children`` and drop it; its wait status, 0 on success."""
    status = os.waitpid(children[0], 0)[1]
    children.pop(0)
    return status
