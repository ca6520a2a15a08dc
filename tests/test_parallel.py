"""The usable-CPU rule and forked_map: order, errors, dead workers, and no
process left behind."""

import multiprocessing
import os
import threading

import pytest

from modcnls import parallel
from modcnls.errors import DivergenceError
from modcnls.parallel import forked_map, worker_count


def pid_of(job):
    return job, os.getpid()


def mapped(fn, jobs, workers):
    with forked_map(fn, jobs, workers, "out.csv") as results:
        got = list(results)
    assert multiprocessing.active_children() == []
    return got


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_results_in_order_first_share_in_the_caller(workers):
    got = mapped(pid_of, range(10), workers)
    assert [job for job, _ in got] == list(range(10))
    pids = [pid for _, pid in got]
    # shares are contiguous: the caller's first, then one per worker
    shares = [pids[0]] + [b for a, b in zip(pids, pids[1:]) if a != b]
    assert shares[0] == os.getpid()
    assert len(set(shares)) == len(shares) == workers


def test_no_more_workers_than_jobs():
    got = mapped(pid_of, range(2), 4)
    assert [job for job, _ in got] == [0, 1]
    assert got[0][1] == os.getpid() != got[1][1]  # the caller and one worker
    assert mapped(pid_of, [], 3) == []


def fail_late(job):
    if job == 9:
        raise ValueError(f"job {job} refused")
    return job


def test_worker_exception_raised_in_the_caller():
    with pytest.raises(ValueError, match="job 9 refused"):
        mapped(fail_late, range(10), 2)
    assert multiprocessing.active_children() == []


def diverge_late(job):
    if job == 9:
        raise DivergenceError(0.25)
    return job


def test_worker_divergence_keeps_its_time():
    with pytest.raises(DivergenceError, match="non-finite at t=0.25") as info:
        mapped(diverge_late, range(10), 2)
    assert info.value.t == 0.25


def die_late(job):
    if job == 9:
        os._exit(7)
    return job


def test_dead_worker_names_the_output():
    with pytest.raises(ChildProcessError, match=r"out\.csv: .* code 7"):
        mapped(die_late, range(10), 2)
    assert multiprocessing.active_children() == []


def test_caller_stopping_early_stops_the_workers():
    with pytest.raises(KeyError):
        with forked_map(pid_of, range(10), 3, "out.csv") as results:
            next(results)
            raise KeyError("consumer failed")
    assert multiprocessing.active_children() == []


def test_no_fork_while_other_threads_run():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        got = mapped(pid_of, range(6), 2)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert {pid for _, pid in got} == {os.getpid()}


def test_no_fork_without_the_fork_start_method(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert {pid for _, pid in mapped(pid_of, range(6), 2)} == {os.getpid()}


def forks_nothing(job):
    return {pid for _, pid in mapped(pid_of, range(4), 2)} == {os.getpid()}


def test_a_worker_forks_no_workers_of_its_own():
    # job 0 runs in the caller, which forks; job 1 in the worker, which not
    assert mapped(forks_nothing, range(2), 2) == [False, True]


def test_worker_count_follows_cpus_jobs_and_size(monkeypatch):
    size = parallel.VALUES_PER_WORKER
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    assert worker_count(41, 10 * size) == 4
    assert worker_count(3, 10 * size) == 3
    assert worker_count(41, 2 * size + 1) == 2
    assert worker_count(41, size - 1) == 1
    assert worker_count(0, 0) == 1
