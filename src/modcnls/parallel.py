"""Work shared out over the CPUs this process may use.

usable_cpus is the package's one rule for how many CPUs that is: the
process's CPU affinity, else os.cpu_count().  forked_map is the package's
one way to use them: propagate steps its ensemble's shares of members, the
solution command writes its snapshots and the dump writers render their
blocks of rows on one process per usable CPU, as worker_count sizes them.
Nothing in the package starts a thread.
"""

import contextlib
import gc
import os
import pickle
import signal
import sys
import threading

# the fewest values worth a worker process: forking and joining one costs
# about 10 ms in an 80 MB process, the time to render some 10^4 values
VALUES_PER_WORKER = 50_000

# set in every worker, which then runs its own forked_maps in-process
_IN_WORKER = False


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


def _flush_std_streams():
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, ValueError):  # None, closed
            stream.flush()


def _serve(recv, send, fn, jobs):
    """A worker's body, which never returns: close the pipe's read end
    recv, write [fn(job) ...] or the exception raised, pickled, to its
    write end send, and leave.

    The cyclic collector stays off: the worker leaves by os._exit, so
    nothing it allocates outlives it, and a collection would walk the heap
    it inherited, copying every page it touches.
    """
    global _IN_WORKER
    code = 1
    try:
        _IN_WORKER = True
        os.close(recv)
        gc.disable()
        try:
            reply = (True, [fn(job) for job in jobs])
        except Exception as exc:
            reply = (False, exc)
        data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        with open(send, "wb") as pipe:
            pipe.write(data)
        code = 0
    except BaseException:
        # e.g. an unpicklable reply: the caller finds no reply and code 1;
        # os._exit below keeps anything from unwinding into the caller's
        # frames, which the worker inherited
        sys.excepthook(*sys.exc_info())
    finally:
        _flush_std_streams()
        os._exit(code)


def _fork(fn, jobs):
    """Fork a worker running fn over jobs: its pid and the read end of the
    pipe it replies on, as a file, so that closing it twice closes no
    descriptor the system may have reused."""
    recv, send = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(recv)
        os.close(send)
        raise
    if pid == 0:
        _serve(recv, send, fn, jobs)
    os.close(send)
    return pid, os.fdopen(recv, "rb")


def _results(fn, own, workers, what):
    """The caller's own share, computed as it is reached, then each
    worker's results in turn.  workers maps pid to pipe, in fork order; a
    worker leaves it once reaped, so no reaped pid, which the system may
    reuse, is signalled or waited for again."""
    yield from map(fn, own)
    for pid, pipe in list(workers.items()):
        with pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del workers[pid]
        if not data:
            raise ChildProcessError(
                f"{what}: a worker process exited with code {code} "
                "before returning its share")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        yield from value


@contextlib.contextmanager
def forked_map(fn, jobs, workers, what):
    """A context whose value iterates over fn(job) for each job, in order.

    The jobs are cut into `workers` contiguous shares.  Every share after
    the first goes to a process forked on entry, so fn and all it reads
    reach the worker by inheritance and are never pickled; only results
    and exceptions travel back, pickled through a pipe.  The calling
    process runs the first share as the iterator reaches it, then takes
    each worker's results in turn.

    Workers are forked before the block runs, so a caller that opens its
    output files inside the block hands no unflushed buffer to a worker.
    A worker's exception is raised again in the caller; a worker that dies
    without a result raises ChildProcessError naming `what`.  On exit every
    worker has been reaped, and one whose result went unread terminated
    first.  Everything runs in the calling process when workers is 1, when
    the process runs other threads (fork copies only the calling one, and a
    lock another thread holds would stay held in the worker), when the
    process is itself a worker and on a platform without fork.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    edges = [0, len(jobs)]
    if (workers > 1 and threading.active_count() == 1 and not _IN_WORKER
            and hasattr(os, "fork")):
        edges = [len(jobs) * k // workers for k in range(workers + 1)]
        _flush_std_streams()  # or each worker would write them again
    forked = {}
    try:
        for a, b in zip(edges[1:-1], edges[2:]):
            pid, pipe = _fork(fn, jobs[a:b])
            forked[pid] = pipe
        yield _results(fn, jobs[:edges[1]], forked, what)
    finally:
        for pid, pipe in forked.items():  # each one's result went unread
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
            pipe.close()
