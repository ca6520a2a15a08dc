"""The benchmark's workloads: CLI command sequences and their output checks.

Each workload is a list of Commands.  A Command is the argv handed to
``modcnls.cli.main`` plus a check that reads back what the command wrote.
A command fails when its exit code is not 0 or when one of its checks
fails; the failed share of attempted commands is the run's fail ratio.

Why these three (see README.md for the layer each one stresses):

* stability     the paper's tracking-and-stability experiment: a clean
                split-step run of the elliptic pair plus a seeded perturbed
                twin.  Exercises the propagator, coefficient sampling, the
                elliptic reference records and the Jacobi functions.
* verify_quasi  the heaviest residual check, on the Mathieu-integrated
                width.  No time stepping at all, so it is the bypass
                workload for split-step changes; it stresses erf on a large
                lattice, the finite-difference constraint suite and
                vectorised width queries.
* dump_quasi    the write path: field snapshots and coefficient lattices
                for the sech pair on the Mathieu width, rendered as csv.  No
                stepping, no Jacobi functions and no erf series, so it is
                the bypass workload for both.

The horizons are chosen so one command sequence takes one to ten seconds on
a 2-core sandbox; grid, dt and stride stay at the CLI defaults.
"""

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

# acceptance thresholds of the clean propagation (criterion 5)
NORM_DRIFT_LIMIT = 1e-6
PROFILE_ERROR_LIMIT = 1e-3
# the dump is re-derived from the library; differences beyond rounding fail
ROUND_TRIP_RTOL = 1e-9
# the published closed-form trap against the transform algebra
# (potential_from_transform): 3.5e-13 at worst on the sech dump, elementwise
TRANSFORM_RTOL = 1e-11
# the reference width trace is built this far past the last snapshot; its
# values at the snapshots do not depend on the horizon
HORIZON_PAD = 1.0


@dataclass
class Check:
    name: str
    ok: bool
    value: object
    limit: object = None


@dataclass
class Command:
    label: str
    argv: List[str]  # ends with --out <out>
    out: str
    check: Callable  # (out, modcnls) -> (list of Check, accuracy or None)


@dataclass
class Workload:
    name: str
    family: str          # family and drive of the workload's inputs
    drive: str
    purpose: str         # default_grid purpose of the commands
    t_end: float         # the --t-end the commands are given
    commands: Callable   # (seed, out_dir, t_end) -> list of Command
    accuracy_name: str   # what the workload's accuracy_error measures


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_table(path):
    """(columns, rows) of a csv file the CLI wrote."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        start += 1
    columns = tuple(lines[start].split(","))
    rows = np.loadtxt(lines[start + 1:], delimiter=",", ndmin=2)
    return columns, rows


def _rel_gap(got, want):
    """Largest elementwise relative difference (absolute where want is 0).

    Elementwise, because one coefficient column spans many decades: the
    sech trap grows like exp(2 xi^2 / 3 gamma^2) towards the box edge.
    """
    want = np.asarray(want)
    scale = np.where(want != 0, np.abs(want), 1.0)
    return float(np.max(np.abs(np.asarray(got) - want) / scale))


# ---------------------------------------------------------------- stability

def _check_stability(out, mc):
    summary = _read_json(os.path.join(out, "stability.json"))
    clean = summary["unperturbed"]
    drift, err = clean["norm_drift"], clean["max_profile_error"]
    checks = [
        Check("verdict", summary.get("verdict") is True,
              summary.get("verdict"), True),
        Check("norm_drift", drift <= NORM_DRIFT_LIMIT, drift,
              NORM_DRIFT_LIMIT),
        Check("profile_error", err <= PROFILE_ERROR_LIMIT, err,
              PROFILE_ERROR_LIMIT),
    ]
    return checks, err


def _stability_commands(seed, out, t_end):
    argv = ["propagate", "--family", "elliptic", "--drive", "periodic",
            "--perturb", "0.03", "--seed", str(seed),
            "--t-end", repr(t_end), "--out", out]
    return [Command("propagate", argv, out, _check_stability)]


# ------------------------------------------------------------- verify_quasi

def _check_verify(out, mc):
    report = _read_json(os.path.join(out, "report.json"))
    cons = report["constraints"]
    worst = max(cons["continuity"], cons["advection"], cons["flux"])
    checks = [
        Check("pass", report.get("pass") is True, report.get("failures"),
              []),
        Check("constraint_residual", worst <= cons["threshold"], worst,
              cons["threshold"]),
    ]
    return checks, worst


def _verify_commands(seed, out, t_end):
    argv = ["verify", "--family", "elliptic", "--drive", "quasiperiodic",
            "--seed", str(seed), "--t-end", repr(t_end), "--out", out]
    return [Command("verify", argv, out, _check_verify)]


# --------------------------------------------------------------- dump_quasi

@functools.lru_cache(maxsize=2)
def _reference(mc, family, drive, t_end):
    """The family and a width trace covering a dump to t_end."""
    spec = getattr(mc, family.replace("-", "_") + "_family")()
    return spec, mc.default_trace(spec, drive=drive,
                                  t_end=t_end + HORIZON_PAD)


def _dump_manifest(out):
    """The dump's resolved config, its reference and a snapshot-time check."""
    manifest = _read_json(os.path.join(out, "manifest.json"))
    times = np.asarray(manifest["times"], dtype=float)
    interval = manifest["stride"] * manifest["dt"]
    t_end = manifest["t_end"]
    # 0, stride * dt, ... up to t_end, as the manifest's config asks
    lattice = (times.size > 0
               and np.allclose(times, interval * np.arange(times.size),
                               rtol=1e-12, atol=0.0)
               and times[-1] <= t_end + 1e-9 < times[-1] + interval)
    check = Check("snapshot_times", bool(lattice),
                  f"{times.size} times to {times[-1] if times.size else None}",
                  f"0, {interval:g}, ... <= {t_end:g}")
    return manifest, times, check


def _check_solution(out, mc):
    manifest, times, times_check = _dump_manifest(out)
    family, trace = _reference(mc, manifest["family"], manifest["drive"],
                               manifest["t_end"])
    files, n = manifest["files"], manifest["N"]
    checks = [times_check,
              Check("snapshot_count", len(files) == len(times), len(files),
                    len(times))]
    bad_rows, worst, norms = 0, 0.0, []
    for name, t in zip(files, times):
        columns, rows = _read_table(os.path.join(out, name))
        if columns != mc.export.FIELD_COLUMNS or rows.shape[0] != n:
            bad_rows += 1
            continue
        x = rows[:, 0]
        ref = mc.assemble(family, trace, x, t)
        want = np.stack([x, ref.psi1.real, ref.psi1.imag,
                         ref.psi2.real, ref.psi2.imag,
                         np.abs(ref.psi1) ** 2, np.abs(ref.psi2) ** 2], 1)
        worst = max(worst, _rel_gap(rows, want))
        norms.append(rows[:, 5:7].sum(axis=0) * (x[1] - x[0]))
    checks.append(Check("snapshot_rows", bad_rows == 0, bad_rows, 0))
    checks.append(Check("fields_round_trip", worst <= ROUND_TRIP_RTOL, worst,
                        ROUND_TRIP_RTOL))
    if len(norms) < 2:
        return checks, None
    # the exact solution conserves both norms; the dumped snapshots show how
    # well the export grid resolves it
    norms = np.array(norms)
    drift = float(np.max((norms.max(0) - norms.min(0)) / norms[0]))
    checks.append(Check("norm_drift", drift <= NORM_DRIFT_LIMIT, drift,
                        NORM_DRIFT_LIMIT))
    return checks, drift


def _check_potential(out, mc):
    manifest, times, times_check = _dump_manifest(out)
    family, trace = _reference(mc, manifest["family"], manifest["drive"],
                               manifest["t_end"])
    n = manifest["N"]
    columns, rows = _read_table(os.path.join(out, "coefficients.csv"))
    expected = len(times) * n
    checks = [
        times_check,
        Check("coefficient_columns", columns == mc.export.COEFFICIENT_COLUMNS,
              columns, mc.export.COEFFICIENT_COLUMNS),
        Check("coefficient_rows", rows.shape[0] == expected, rows.shape[0],
              expected),
    ]
    if not all(c.ok for c in checks):
        return checks, None
    sampler = mc.CoefficientSampler(family, trace)
    worst, worst_transform = 0.0, 0.0
    for k, t in enumerate(times):
        block = rows[k * n:(k + 1) * n]
        x = block[:, 0]
        v = sampler.potential(x, t)
        g = sampler.couplings(x, t)
        want = np.stack([x, np.full(n, t), v[0], v[1], g[0, 0],
                         g[0, 1], g[1, 0], g[1, 1]], 1)
        worst = max(worst, _rel_gap(block, want))
        # an independent reference: a wrong closed form in the sampler
        # passes the round trip but not this
        worst_transform = max(worst_transform, _rel_gap(
            block[:, 2:4].T, mc.potential_from_transform(family, trace, x, t)))
    checks.append(Check("coefficients_round_trip", worst <= ROUND_TRIP_RTOL,
                        worst, ROUND_TRIP_RTOL))
    checks.append(Check("potential_vs_transform",
                        worst_transform <= TRANSFORM_RTOL, worst_transform,
                        TRANSFORM_RTOL))
    return checks, None


def _dump_commands(seed, out, t_end):
    common = ["--family", "sech", "--drive", "quasiperiodic",
              "--t-end", repr(t_end), "--format", "csv",
              "--seed", str(seed)]
    commands = []
    for label, check in (("solution", _check_solution),
                         ("potential", _check_potential)):
        sub = os.path.join(out, label)
        commands.append(Command(label, [label, *common, "--out", sub], sub,
                                check))
    return commands


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "stability", "elliptic", "periodic", "propagate", 1.0,
            _stability_commands, "profile_error of the clean run"),
        Workload(
            "verify_quasi", "elliptic", "quasiperiodic", "residual", 5.0,
            _verify_commands, "worst constraint residual"),
        Workload(
            "dump_quasi", "sech", "quasiperiodic", "export", 10.0,
            _dump_commands,
            "norm drift across the dumped field snapshots"),
    )
}
