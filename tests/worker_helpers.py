"""Forcing the dump writers' process count, next to the tests that use it."""

import os

from modcnls import parallel


def force_workers(monkeypatch, n):
    """Give every forked_map with two or more jobs n processes, whatever
    the host's CPUs and the job's size; returns the list of worker pids,
    which fills as workers are forked."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
    monkeypatch.setattr(parallel, "VALUES_PER_WORKER", 1)
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked
