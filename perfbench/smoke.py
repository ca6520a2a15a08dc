"""Smoke check of the benchmark itself, at minimal horizons.

    python3 perfbench/smoke.py

Runs every workload once in each trace mode through ``run.main`` with the
horizons cut to the minimum, and checks that the last output line carries
exactly the metrics BENCHMARK.json names, each with its unit, and no
failures; traced, the counts of the layers each workload stresses must not
be 0.  Then runs the dump workload with a deliberately wrong potential
dump (the chemical-potential sign flipped) and checks that the round-trip
check catches it and the fail ratio counts it.  Exits 1 on any mismatch.
Takes about a minute; the verify workload's lattice does not shrink with
the horizon.
"""

import contextlib
import dataclasses
import io
import json
import sys

import run
from workloads import WORKLOADS

# minimal horizons: a few records, one pde-residual window, two snapshots
TINY_T_END = {"stability": 0.05, "verify_quasi": 1.0, "dump_quasi": 0.25}
# per-layer counts each workload must move; 0 means the tracer lost a layer
KEY_COUNTS = {
    "stability": ("propagator.steps", "transform.sampler_calls",
                  "specfun.jacobi_points", "families.assemble_calls",
                  "modulation.query_calls"),
    "verify_quasi": ("transform.lattice_points", "specfun.erf_points",
                     "modulation.mathieu_steps", "modulation.query_points"),
    "dump_quasi": ("export.rows", "export.bytes", "modulation.mathieu_steps",
                   "transform.sampler_calls", "families.assemble_calls"),
}


def run_main(argv):
    """Last-line result and the full stdout of one in-process benchmark run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    lines = buf.getvalue().strip().splitlines()
    if code != 0:
        raise RuntimeError(f"run.main{argv} exited {code}")
    return json.loads(lines[-1]), lines


def metric_problems(result, expected):
    """Differences between emitted and expected {name: unit} metrics."""
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = [f"missing {n}" for n in expected if n not in got]
    problems += [f"unexpected {n}" for n in got if n not in expected]
    problems += [f"{n} has unit {got[n]!r}, expected {expected[n]!r}"
                 for n in expected if n in got and got[n] != expected[n]]
    return problems


def _flipped_potential(commands):
    def make(seed, out, t_end):
        cmds = commands(seed, out, t_end)
        for cmd in cmds:
            if cmd.label == "potential":
                cmd.argv += ["--mu-sign", "flipped"]
        return cmds
    return make


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    originals = dict(WORKLOADS)
    try:
        for name, workload in originals.items():
            WORKLOADS[name] = dataclasses.replace(
                workload, t_end=TINY_T_END[name])
            for trace in (0, 1):
                result, _ = run_main(["--workload", name, "--seed", "1",
                                      "--seconds", "0", "--trace", str(trace)])
                found = metric_problems(result, expected[trace])
                if not result["correct"] or result["failed"]:
                    found.append(f"{result['failed']} failed commands")
                if trace:
                    found += [f"{m} is 0" for m in KEY_COUNTS[name]
                              if not result["metrics"].get(m, {}).get("value")]
                problems += [f"{name} trace {trace}: {p}" for p in found]
                print(f"{name} trace {trace}: "
                      f"{'ok' if not found else '; '.join(found)}")

        dump = WORKLOADS["dump_quasi"]
        WORKLOADS["dump_quasi"] = dataclasses.replace(
            dump, commands=_flipped_potential(dump.commands))
        result, lines = run_main(["--workload", "dump_quasi", "--seed", "1",
                                  "--seconds", "0", "--trace", "0"])
    finally:
        WORKLOADS.update(originals)
    caught = any(line.startswith("FAIL dump_quasi/potential "
                                 "coefficients_round_trip") for line in lines)
    counted = (result["attempted"], result["failed"], result["correct"]) == \
        (2, 1, False) and "fail_ratio = 0.5 (1 of 2 commands)" in lines
    print(f"flipped potential dump: caught {caught}, counted {counted}")
    if not (caught and counted):
        problems.append("a wrong potential dump was not counted as failed")

    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
