"""Data-parallel map over contiguous shards, one per usable CPU.

``run(n, min_per_shard, fn)`` calls ``fn(start, stop)`` over contiguous
shards of ``range(n)`` and returns the parts in shard order, so joining
them gives what ``fn(0, n)`` gives. The first shard runs in this process;
each later one in a forked child, which pickles its part to a pipe and
leaves with ``os._exit``, so it never flushes this process's buffers or
runs its exit handlers. A child that fails or sends an unreadable part
costs only time: its shard runs again here, which also raises whatever a
serial run would. Every child is reaped before ``run`` returns or raises.
One shard, and no fork, where ``os.fork`` is missing, one CPU is usable,
another thread runs (a fork would copy its locks in whatever state), or
the shards would hold fewer than ``min_per_shard`` items each.

The corpus reader (``corpus.build_index``) and batch extraction (``cli``)
run through it. Spans a benchmark tracer records inside a child never
reach the parent, so traced per-layer figures cover the first shard only
unless the process is held to one CPU.
"""

from __future__ import annotations

import os
import threading

_LOST = object()   # what _receive gives for a child that failed


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def shard_count(n: int, min_per_shard: int) -> int:
    """How many shards ``run`` splits ``n`` items into."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), n // min_per_shard))


def shard_bounds(n: int, min_per_shard: int) -> list[tuple[int, int]]:
    """The (start, stop) of each shard, in order; one empty shard for n = 0."""
    count = shard_count(n, min_per_shard)
    bounds = [n * k // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def run(n: int, min_per_shard: int, fn) -> list:
    """``fn(start, stop)`` for each shard of ``range(n)``, in shard order."""
    first, *rest = shard_bounds(n, min_per_shard)
    children = []   # (pid, read end of its pipe), one per shard after the first
    try:
        for start, stop in rest:
            child = _fork(fn, start, stop, children)
            if child is None:   # the fork failed; this and later shards run here
                break
            children.append(child)
        parts = [fn(*first)]
        for start, stop in rest:
            part = _receive(*children.pop(0)) if children else _LOST
            parts.append(fn(start, stop) if part is _LOST else part)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return parts


def _fork(fn, start: int, stop: int, children: list):
    """Fork a child that pickles ``fn(start, stop)`` to a pipe; returns
    (pid, the pipe's read end), or None if the fork fails. ``children``
    are the children forked before, whose pipes the new child closes, so
    that each child's pipe has one reader."""
    import pickle
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            for _, pipe in children:
                pipe.close()
            with open(write_fd, "wb") as out:
                pickle.dump(fn(start, stop), out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(pid: int, pipe):
    """What a shard's child sent, or ``_LOST`` if it exited non-zero or
    sent something that does not unpickle."""
    import pickle
    try:
        with pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        return _LOST
    try:
        return pickle.loads(payload)
    except (pickle.UnpicklingError, EOFError):   # a short or garbled payload
        return _LOST
