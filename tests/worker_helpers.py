"""Forcing forked_map's process count and watching the processes it forks,
next to the tests that use them."""

import os

import pytest

from modcnls import parallel


def spy_forks(monkeypatch):
    """Record the pid of every process forked from now on; returns the
    list, which fills as processes are forked."""
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


def force_workers(monkeypatch, n):
    """Give every forked_map with two or more jobs n processes, whatever
    the host's CPUs and the job's size; returns the list of worker pids,
    which fills as workers are forked."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
    monkeypatch.setattr(parallel, "VALUES_PER_WORKER", 1)
    return spy_forks(monkeypatch)


def assert_reaped(pids):
    """Every process in pids has ended and been reaped: waiting for it
    finds no such child, where a running or unreaped one would be found."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
