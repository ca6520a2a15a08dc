"""modcnls benchmark: CLI workloads run in-process, checked, timed and traced.

    python3 perfbench/run.py --workload stability --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One caller in a closed loop: the workload's command
sequence goes through ``modcnls.cli.main`` back to back, in this process,
until the sequences have taken ``--seconds``.  Every command's outputs are
checked after the sequence, outside the timed region.

``--trace 0`` prints the end-to-end metrics (see BENCHMARK.json).  Set-up
is timed in fresh interpreters spread over the run, between sequences, so
set-up and run times see the same host conditions.
``--trace 1`` runs one untimed warm-up sequence, then spends half the time
untraced and half with the layer tracer installed, and prints the per-layer
metrics, the tracing overhead and the layer probes.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from layers import Tracer
from probes import probe_metrics
from workloads import WORKLOADS, Check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
SETUP_REPEATS = 11

# a fresh interpreter readies a workload's inputs: the import plus the
# family's default width trace and grid for the workload's drive
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import modcnls
family = getattr(modcnls, sys.argv[2] + "_family")()
modcnls.default_trace(family, drive=sys.argv[3], t_end=float(sys.argv[4]))
modcnls.default_grid(family, sys.argv[5], drive=sys.argv[3])
"""


def import_package():
    """Import modcnls from this checkout's src, never from elsewhere."""
    if not (SRC / "modcnls" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'modcnls'}; "
                         "run from the root of a modcnls checkout")
    sys.path.insert(0, str(SRC))
    import modcnls
    import modcnls.cli
    if Path(modcnls.__file__).resolve().parent != SRC / "modcnls":
        raise SystemExit(f"error: imported modcnls from {modcnls.__file__}, "
                         f"not from {SRC}")
    return modcnls


def time_setup(workload):
    """Wall time of one fresh interpreter readying the workload's inputs."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), workload.family,
            workload.drive, repr(workload.t_end), workload.purpose]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Tally:
    """Commands attempted and failed; first sighting of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}   # (label, check) -> [count, value, limit]
        self.accuracy = []

    def record(self, label, checks):
        self.attempted += 1
        bad = [c for c in checks if not c.ok]
        if bad:
            self.failed += 1
        for c in bad:
            entry = self.failures.setdefault((label, c.name),
                                             [0, c.value, c.limit])
            entry[0] += 1

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def run_command(mc, cmd, tracer):
    """Exit code and captured stderr of one cli.main call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = mc.cli.main(cmd.argv)
            else:
                code = tracer.span("cli", mc.cli.main, (cmd.argv,))
        except SystemExit as exc:  # argparse rejects an argv this way
            code = exc.code
        except Exception:  # counted as a failed command; the run goes on
            traceback.print_exc()
            code = "uncaught exception"
    return code, err.getvalue().strip()


def run_sequence(mc, workload, seed, tally, tracer=None):
    """Run the workload's commands once; returns the sequence's wall time."""
    out = WORK / f"{workload.name}-{os.getpid()}"
    commands = workload.commands(seed, str(out), workload.t_end)
    codes = []
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    with installed:
        t0 = time.perf_counter()
        for cmd in commands:
            codes.append(run_command(mc, cmd, tracer))
        elapsed = time.perf_counter() - t0
    for cmd, (code, err) in zip(commands, codes):
        checks = [Check("exit_code", code == 0, code if not err
                        else f"{code} ({err.splitlines()[-1]})", 0)]
        if code == 0:
            try:
                found, accuracy = cmd.check(cmd.out, mc)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found, accuracy = [Check("outputs_readable", False,
                                         f"{type(exc).__name__}: {exc}")], None
            checks += found
            if accuracy is not None:
                tally.accuracy.append(accuracy)
        tally.record(cmd.label, checks)
    return elapsed


def timed_loop(mc, workload, seed, tally, seconds, traced=False,
               setups=None):
    """Sequences back to back until they took `seconds`, at least one.

    Returns the sequence times and, when traced, one Tracer per sequence.
    Given a list `setups`, fills it with SETUP_REPEATS set-up times, taken
    between sequences in step with the time spent so far.
    """
    times, tracers = [], []
    while True:
        tracer = Tracer(mc) if traced else None
        times.append(run_sequence(mc, workload, seed, tally, tracer))
        if tracer is not None:
            tracers.append(tracer)
        done = sum(times) >= seconds
        if setups is not None:
            due = SETUP_REPEATS if done else math.ceil(
                SETUP_REPEATS * sum(times) / seconds)
            while len(setups) < due:
                setups.append(time_setup(workload))
        if done:
            return times, tracers


def provenance(mc, args, samples):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "modcnls": mc.__version__, "commit": commit, "samples": samples,
    }


def end_to_end(mc, workload, seed, seconds, tally):
    """End-to-end metrics and their sample counts; tracing off."""
    setup = []
    times, _ = timed_loop(mc, workload, seed, tally, seconds, setups=setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    accuracy = max(tally.accuracy) if tally.accuracy else float("nan")
    metrics = {
        "run_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "accuracy_error": (accuracy, "1"),
    }
    samples = {"run_s": len(times), "setup_s": len(setup),
               "run_s_each": times, "setup_s_each": setup}
    return metrics, samples


def per_layer(mc, workload, seed, seconds, tally):
    """Per-layer metrics: half the time untraced, half traced, then probes."""
    run_sequence(mc, workload, seed, tally)  # warm-up, untimed
    plain, _ = timed_loop(mc, workload, seed, tally, seconds / 2.0)
    traced, tracers = timed_loop(mc, workload, seed, tally, seconds / 2.0,
                                 traced=True)
    maps = [t.metrics() for t in tracers]
    metrics = {}
    for name in maps[0]:
        values = [m[name] for m in maps]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        elif name.endswith("_ratio"):
            metrics[name] = (statistics.median(values), "ratio")
        else:
            metrics[name] = (statistics.median_low(values), "count")
    untraced = statistics.median(plain)
    metrics["trace.untraced_run_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - untraced, "s")
    samples = {name: len(maps) for name in metrics}
    samples["trace.untraced_run_s"] = len(plain)
    for name, (value, unit, n) in probe_metrics(mc).items():
        metrics[name] = (value, unit)
        samples[name] = n
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    mc = import_package()
    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    tally = Tally()
    try:
        metrics, samples = measure(mc, workload, args.seed, args.seconds,
                                   tally)
    finally:
        shutil.rmtree(WORK / f"{workload.name}-{os.getpid()}",
                      ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK.rmdir()

    for (label, check), (count, value, limit) in sorted(
            tally.failures.items()):
        print(f"FAIL {workload.name}/{label} {check}: measured {value!r}, "
              f"limit {limit!r} ({count} of {tally.attempted} commands)")
    print(json.dumps({"provenance": provenance(mc, args, samples)}))
    print(f"fail_ratio = {tally.fail_ratio:.6g} "
          f"({tally.failed} of {tally.attempted} commands)")
    if not args.trace:
        print(f"accuracy_error is the {workload.accuracy_name}")
    for name, (value, unit) in metrics.items():
        n = f" (median of {samples[name]})" if samples.get(name, 1) > 1 else ""
        print(f"{name} = {value:.6g} {unit}{n}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
