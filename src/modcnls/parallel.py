"""Work shared out over the CPUs this process may use.

usable_cpus is the package's one rule for how many CPUs that is: the
process's CPU affinity, else os.cpu_count().  The constraint walk runs one
thread strip per usable CPU; the dump writers run one process per usable
CPU through forked_map.
"""

import contextlib
import os
import threading

# the fewest values worth a worker process: forking and joining one costs
# about 10 ms in an 80 MB process, the time to render some 10^4 values
VALUES_PER_WORKER = 50_000


def usable_cpus():
    """The CPUs this process may run on: its affinity, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(jobs, values):
    """Processes for `jobs` jobs of `values` values in all: one per usable
    CPU, no more than there are jobs and no more than VALUES_PER_WORKER
    values allow, but at least one."""
    return max(1, min(usable_cpus(), jobs, values // VALUES_PER_WORKER))


def _work(send, fn, jobs):
    """A worker's body: send back [fn(job) ...] or the exception raised."""
    try:
        reply = (True, [fn(job) for job in jobs])
    except Exception as exc:
        reply = (False, exc)
    send.send(reply)


def _results(fn, own, workers, what):
    """The caller's own share, computed as it is reached, then each
    worker's results in turn."""
    yield from map(fn, own)
    for proc, recv in workers:
        try:
            ok, value = recv.recv()
        except EOFError:
            proc.join()
            raise ChildProcessError(
                f"{what}: a worker process exited with code {proc.exitcode} "
                "before returning its share") from None
        if not ok:
            raise value
        yield from value
        proc.join()


@contextlib.contextmanager
def forked_map(fn, jobs, workers, what):
    """A context whose value iterates over fn(job) for each job, in order.

    The jobs are cut into `workers` contiguous shares.  Every share after
    the first goes to a process forked on entry, so fn and all it reads
    reach the worker by inheritance and are never pickled; only results
    and exceptions travel back.  The calling process runs the first share
    as the iterator reaches it, then takes each worker's results in turn.

    Workers are forked before the block runs, so a caller that opens its
    output files inside the block hands no unflushed buffer to a worker.
    A worker's exception is raised again in the caller; a worker that dies
    without a result raises ChildProcessError naming `what`.  On exit every
    worker has been joined.  Everything runs in the calling process when
    workers is 1, when the process runs other threads (fork copies only the
    calling one, and a lock another thread holds would stay held in the
    worker), when the process is itself a worker and on a platform without
    fork.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    edges = [0, len(jobs)]
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing  # lazy, as most runs fork no worker
        if (multiprocessing.parent_process() is None
                and "fork" in multiprocessing.get_all_start_methods()):
            fork = multiprocessing.get_context("fork")
            edges = [len(jobs) * k // workers for k in range(workers + 1)]
    procs = []
    try:
        for a, b in zip(edges[1:-1], edges[2:]):
            recv, send = fork.Pipe(duplex=False)
            proc = fork.Process(target=_work, args=(send, fn, jobs[a:b]))
            proc.start()
            send.close()
            procs.append((proc, recv))
        yield _results(fn, jobs[:edges[1]], procs, what)
    finally:
        for proc, recv in procs:
            if proc.exitcode is None:
                proc.terminate()  # a worker whose result went unread
            proc.join()
            recv.close()
