"""Command-line front end.

Subcommands map to the package's activities: solution and potential dump
analytic lattices, verify runs the constraint/potential/equation residual
suites, propagate runs split-step experiments with optional perturbation,
and mathieu-trace dumps the integrated width trace.

Each option is one row of OPTIONS; a subcommand's parser, defaults and
config-file reader take the rows its handler reads (FAMILIES then gates the
family options), and flag and config-file values pass through one
converter, so both refuse the same values with the same message.

Configuration precedence: built-in defaults, then a key=value config file
given with --config, then command-line flags.  Exit codes: 0 success,
1 a refused configuration (a bad flag, option value or config file, or a
precondition checked before any work), 2 a verification or stability check
ran and failed, 3 numerical divergence.
"""

import argparse
import collections
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import DivergenceError, ValidationError
from .export import (EXTENSIONS, FIELD_COLUMNS, FORMATS, write_coefficients,
                     write_diagnostics, write_fields, write_manifest,
                     write_modulation)
from .families import (assemble, dark_bright_family, default_grid,
                       default_trace, elliptic_family, sech_family)
from .grid import SpatialGrid
from .modulation import DRIVES, mathieu_trace
from .parallel import forked_map, worker_count
from .propagator import (PropagationConfig, pde_residual, perturb, propagate,
                         stability_verdict)
from .transform import (STENCIL_DEPTH, STENCIL_DT, CoefficientSampler,
                        constraint_window, potential_identity_check,
                        verify_constraints)


# one row per option; name is the flag and config-file spelling where it is
# not the key, and domain is a (description, predicate) pair on the value
Option = collections.namedtuple(
    "Option", "key type default choices domain help name",
    defaults=(None, (), None, None, None))

# each family: its factory and the options only the families naming them
# read, the factory's argument first and then default_trace's keywords
FAMILIES = {
    "elliptic": (elliptic_family, ("n", "drive", "epsilon", "omega0")),
    "sech": (sech_family, ("gamma", "drive", "epsilon", "omega0")),
    "dark-bright": (dark_bright_family, ("lam", "alpha", "beta")),
}
_FAMILY_KEYS = {key for _, keys in FAMILIES.values() for key in keys}

_POSITIVE = ("finite and > 0", lambda v: math.isfinite(v) and v > 0)
_FINITE = ("finite", math.isfinite)

OPTIONS = (
    Option("family", str, "elliptic", tuple(FAMILIES)),
    Option("n", int, 1, help="elliptic mode index"),
    Option("gamma", float, 6.0, help="sech width parameter"),
    Option("lam", float, 0.5, name="lambda",
           help="dark-bright shape parameter"),
    Option("alpha", float, 0.3, help="dark-bright width tone at frequency 1"),
    Option("beta", float, 0.2,
           help="dark-bright width tone at frequency sqrt(2)"),
    Option("epsilon", float, 0.5, domain=_FINITE,
           help="drive modulation depth"),
    Option("omega0", float, 1.0, domain=_FINITE,
           help="drive modulation frequency"),
    Option("drive", str, "periodic", DRIVES),
    Option("L", float, help="grid half width (default sized per family)"),
    Option("N", int, 1024, help="grid points, a power of two"),
    # the stepping rows take their defaults from COMMANDS
    Option("t_end", float, domain=_POSITIVE, help="time horizon"),
    Option("dt", float, domain=_POSITIVE, help="time step"),
    Option("stride", int, domain=(">= 1", lambda v: v >= 1),
           help="steps between snapshots or records"),
    Option("perturb", float, 0.03,
           domain=("in [0, 0.2)", lambda v: 0.0 <= v < 0.2),
           help="amplitude; 0.2 and above void the small-perturbation premise"),
    Option("perturb_mode", str, "multiplicative",
           ("multiplicative", "additive")),
    Option("seed", int, 42, domain=(">= 0", lambda v: v >= 0)),
    Option("out", str, help="output directory (default modcnls-<command>)"),
    Option("mu_sign", str, "standard", ("standard", "flipped"),
           help="sign convention of the chemical-potential pair"),
    Option("format", str, "csv", FORMATS),
    Option("corrupt_rho", float, 0.0, domain=_FINITE,
           help="verify: scale rho by (1 + c x)"),
)


def convert(opt, raw):
    """The value of option opt written as the text raw, whether it came from
    a flag or from a config file."""
    if opt.choices and raw not in opt.choices:
        raise ValidationError(f"unknown {opt.key} {raw!r}; choose from "
                              + ", ".join(opt.choices))
    try:
        value = opt.type(raw)
    except ValueError:
        raise ValidationError(f"{opt.key} must be of type "
                              f"{opt.type.__name__}, got {raw!r}") from None
    if opt.domain and not opt.domain[1](value):
        raise ValidationError(
            f"{opt.key} must be {opt.domain[0]}, got {raw!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are refusals like any other (exit 1);
    --help and --version still exit 0."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="modcnls",
        description="Modulated coupled nonlinear Schrodinger toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, keys, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None,
                       help="key=value file applied between defaults and flags")
        # values stay text here; resolve() converts flags and config alike
        for opt in (opt for opt in OPTIONS if opt.key in keys):
            flag = "--" + (opt.name or opt.key).replace("_", "-")
            p.add_argument(flag, dest=opt.key, help=opt.help,
                           metavar="{%s}" % ",".join(opt.choices)
                           if opt.choices else None)
    return parser


def load_config_file(path, command):
    pairs = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"config file {path}: {exc}")
    for i, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ValidationError(f"config file {path}:{i}: expected key=value")
        key, value = (part.strip() for part in text.split("=", 1))
        opt = next((opt for opt in OPTIONS if opt.key in COMMANDS[command][2]
                    and key.replace("-", "_") in (opt.key, opt.name)), None)
        if opt is None:
            raise ValidationError(f"config file {path}:{i}: unknown key "
                                  f"{key!r} for {command}")
        try:
            pairs[opt.key] = convert(opt, value)
        except ValidationError as exc:
            raise ValidationError(f"config file {path}:{i}: {exc}") from None
    return pairs


def resolve(args):
    given = ({} if args.config is None
             else load_config_file(args.config, args.command))
    given.update({opt.key: convert(opt, getattr(args, opt.key)) for opt in
                  OPTIONS if getattr(args, opt.key, None) is not None})
    _, _, keys, stepping = COMMANDS[args.command]
    cfg = {opt.key: opt.default for opt in OPTIONS if opt.key in keys}
    cfg.update(stepping, **given)
    if "family" in cfg:
        for key in sorted(_FAMILY_KEYS.difference(FAMILIES[cfg["family"]][1])):
            if key in given:
                raise ValidationError(f"family {cfg['family']} reads no {key}")
            del cfg[key]
    if cfg["out"] is None:
        cfg["out"] = f"modcnls-{args.command}"
    cfg["command"] = args.command
    cfg["version"] = __version__
    return cfg


def _family_from(cfg):
    factory, keys = FAMILIES[cfg["family"]]
    return factory(cfg[keys[0]])


def _trace_from(cfg, family, t_end):
    return default_trace(family, t_end=t_end,
                         **{k: cfg[k] for k in FAMILIES[cfg["family"]][1][1:]})


def _grid_from(cfg, family, purpose):
    if cfg["L"] is not None:
        return SpatialGrid(cfg["L"], cfg["N"])
    return default_grid(family, purpose, n_points=cfg["N"],
                        drive=cfg.get("drive", "periodic"))


def _prepare_out(cfg):
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ValidationError(f"output directory {out!r} is not writable: {exc}")
    return out


def _meta(cfg, **extra):
    return {**{k: v for k, v in cfg.items() if v is not None}, **extra}


def _dump_inputs(cfg, family):
    """The grid, snapshot times and width trace of the two dump commands."""
    grid = _grid_from(cfg, family, "export")
    interval = cfg["stride"] * cfg["dt"]
    count = int(np.floor(cfg["t_end"] / interval + 1e-9))
    times = [k * interval for k in range(count + 1)]
    return grid, times, _trace_from(cfg, family, cfg["t_end"])


def cmd_solution(cfg):
    family = _family_from(cfg)
    grid, times, trace = _dump_inputs(cfg, family)
    out = _prepare_out(cfg)
    ext = EXTENSIONS[cfg["format"]]

    def snapshot(idx):
        fields = assemble(family, trace, grid.x, times[idx])
        name = f"fields_{idx:04d}.{ext}"
        write_fields(os.path.join(out, name), fields,
                     _meta(cfg, t=repr(float(times[idx]))), cfg["format"])
        return name

    # each worker assembles and writes its own share of the snapshots
    workers = worker_count(len(times),
                           len(times) * len(grid.x) * len(FIELD_COLUMNS))
    with forked_map(snapshot, range(len(times)), workers, out) as written:
        names = list(written)
    write_manifest(os.path.join(out, "manifest.json"),
                   {**cfg, "times": times, "files": names})
    print(f"wrote {len(names)} field snapshots to {out}")
    return 0


def cmd_potential(cfg):
    family = _family_from(cfg)
    if cfg["mu_sign"] == "flipped":
        family = dataclasses.replace(
            family, mu=(-family.mu[0], -family.mu[1]))
    grid, times, trace = _dump_inputs(cfg, family)
    sampler = CoefficientSampler(family, trace)
    out = _prepare_out(cfg)
    ext = EXTENSIONS[cfg["format"]]
    names = [f"coefficients.{ext}"]
    write_coefficients(os.path.join(out, names[0]), sampler, grid.x, times,
                       _meta(cfg), cfg["format"])
    if family.kind == "dark_bright":
        # the small-x window where the two potential wells sit
        zoom = np.linspace(-2.0, 2.0, cfg["N"])
        names.append(f"coefficients_zoom.{ext}")
        write_coefficients(os.path.join(out, names[1]), sampler, zoom, times,
                           _meta(cfg, window="[-2,2]"), cfg["format"])
    write_manifest(os.path.join(out, "manifest.json"),
                   {**cfg, "times": times, "files": names})
    print(f"wrote coefficient lattices to {out}")
    return 0


# constraint lattice rows per unit of time, for coverage only: from 68 up
# each default walk to T = 5 reads a chi' defect of 1e-7 within 5% of
# 1,921 rows, and at 80 each clean residual within the twelfth-order walk's
_ROWS_PER_UNIT_TIME = 80


def _constraint_lattice(family, t_end):
    """The constraint walk's lattice over [0, t_end]: 640 columns on
    |x| <= 1 (elliptic) or |x| <= 5, _ROWS_PER_UNIT_TIME rows a unit time."""
    half = 1.0 if family.kind == "elliptic" else 5.0
    rows = math.ceil(_ROWS_PER_UNIT_TIME * t_end) + 1
    return np.linspace(-half, half, 640), np.linspace(0.0, t_end, rows)


# half-width in xi = x / chi of the potential-identity lattice: the x
# windows 10, 20 and 15 the check used at t = 1.3, over chi(1.3) of each
# family's periodic-drive width (1.733; 1.482 for the two-tone width)
_POTENTIAL_XI = {"elliptic": 5.75, "sech": 11.5, "dark_bright": 10.0}

# pde_residual's time stencil, at its default step, reaches STENCIL_DEPTH
# steps to either side of a time it checks
_STENCIL_REACH = STENCIL_DEPTH * STENCIL_DT
_PDE_FROM = 0.05  # the earliest pde_residual time, so the least horizon

# each suite of verify passes only on value <= its threshold, so NaN fails
GATES = {"constraints": 1e-5, "potential_identity": 1e-4,
         "pde_residual": 1e-4}


def verify(family, trace, grid, t_end, seed, corrupt_rho=0.0,
           ready=lambda: None):
    """The report of the three suites over [0, t_end] against GATES: the
    constraint walk on _constraint_lattice, the trap identity at five times
    and the full equations on grid at five seeded times in [_PDE_FROM,
    t_end], a t_end below _PDE_FROM refused.  trace must reach
    t_end + _STENCIL_REACH; ready() runs before the first suite."""
    if not t_end >= _PDE_FROM:
        raise ValidationError(
            f"verify: t_end = {t_end!r} is below {_PDE_FROM}, the earliest "
            f"time of its pde_residual checks; use t_end >= {_PDE_FROM}")
    clock = [time.perf_counter()]
    x_lat, t_lat = _constraint_lattice(family, t_end)
    ready()

    residuals = verify_constraints(family, trace, x_lat, t_lat,
                                   corrupt_rho=corrupt_rho)
    constraints = {name: getattr(residuals, name)
                   for name in ("continuity", "advection", "flux")}
    failures = [name for name, value in constraints.items()
                if not value <= GATES["constraints"]]
    clock.append(time.perf_counter())

    # the trap identity is checked on x = chi(t) xi, so the lattice
    # narrows with the fields and resolves them at any chi(t)
    xi = np.linspace(-1.0, 1.0, 768) * _POTENTIAL_XI[family.kind]
    t_pots = np.linspace(_STENCIL_REACH, t_end, 5)
    gaps = np.array([potential_identity_check(family, trace,
                                              trace.chi_at(t) * xi, t)
                     for t in t_pots])
    # argmax stops at the first NaN, so a NaN gap is the one reported
    k = int(np.argmax(gaps))
    if not gaps[k] <= GATES["potential_identity"]:
        failures.append("potential_identity")
    clock.append(time.perf_counter())

    rng = np.random.Generator(np.random.PCG64(seed))
    times = sorted(rng.uniform(_PDE_FROM, t_end, 5).tolist())
    residual = np.array([pde_residual(family, grid, float(t), trace)
                         for t in times])
    # argmax stops at the first NaN, so a NaN residual is the one reported
    at = np.argmax(residual, axis=0)
    worst = residual[at, [0, 1]].tolist()
    if not all(value <= GATES["pde_residual"] for value in worst):
        failures.append("pde_residual")
    clock.append(time.perf_counter())

    # the x and t ranges the residuals were maximized over
    x_in, t_in = constraint_window(x_lat, t_lat)
    return {
        "constraints": {
            **constraints, "threshold": GATES["constraints"],
            "at": dict(zip(constraints, residuals.at)),  # [t, x] each
            "lattice": {"x": [float(x_lat[0]), float(x_lat[-1]), len(x_lat)],
                        "t": [0.0, t_end, len(t_lat)],
                        "interior": {"x": list(x_in), "t": list(t_in)}}},
        "potential_identity": {
            "gap": float(gaps[k]), "threshold": GATES["potential_identity"],
            "t": float(t_pots[k]), "times": t_pots.tolist(),
            "half_width": float(trace.chi_at(t_pots[k]) * xi[-1])},
        "pde_residual": {"times": times, "worst1": worst[0],
                         "worst2": worst[1],
                         "threshold": GATES["pde_residual"],
                         "t1": times[at[0]], "t2": times[at[1]]},
        "timing": dict(zip(("constraints_s", "potential_identity_s",
                            "pde_residual_s"), np.diff(clock).tolist()),
                       constraint_workers=residuals.workers,
                       constraint_strip_s=residuals.strip_s),
        "failures": failures,
        "pass": not failures,
    }


def cmd_verify(cfg):
    family = _family_from(cfg)
    grid = _grid_from(cfg, family, "residual")
    start = time.perf_counter()
    trace = _trace_from(cfg, family, cfg["t_end"] + _STENCIL_REACH)
    trace_s = time.perf_counter() - start
    report = verify(family, trace, grid, cfg["t_end"], cfg["seed"],
                    cfg["corrupt_rho"], ready=lambda: _prepare_out(cfg))
    report["timing"]["trace_s"] = trace_s
    write_manifest(os.path.join(cfg["out"], "report.json"),
                   {"config": dict(cfg), **report})
    print(json.dumps({"pass": report["pass"], "failures": report["failures"]}))
    return 0 if report["pass"] else 2


def cmd_propagate(cfg):
    family = _family_from(cfg)
    grid = _grid_from(cfg, family, "propagate")
    trace = _trace_from(cfg, family, cfg["t_end"])
    run = PropagationConfig(
        grid, dt=cfg["dt"], t_end=cfg["t_end"],
        coefficient_source=CoefficientSampler(family, trace),
        record_stride=cfg["stride"],
    )
    psi0 = assemble(family, trace, grid.x, 0.0)
    out = _prepare_out(cfg)
    ext = EXTENSIONS[cfg["format"]]

    members = [psi0]
    if cfg["perturb"] > 0:
        members.append(perturb(psi0, cfg["perturb"], cfg["seed"],
                               mode=cfg["perturb_mode"]))
    # the clean run and its perturbed twin step together as one ensemble
    diags = propagate(members, run, reference=(family, trace))
    for diag, name, tag in zip(diags, ("unperturbed", "perturbed"),
                               ("no", "yes")):
        write_diagnostics(os.path.join(out, f"diagnostics_{name}.{ext}"),
                          diag, _meta(cfg, perturbed=tag), cfg["format"])
    summary = {
        "config": dict(cfg),
        "unperturbed": {
            "max_profile_error": diags[0].max_profile_error(),
            "norm_drift": diags[0].norm_drift(),
        },
    }
    if len(diags) > 1:
        report = stability_verdict(diags[1], threshold=0.1)
        summary["perturbed"] = {
            "max_profile_error": report.max_profile_error,
            "time_of_max": report.time_of_max,
            "threshold": report.threshold,
        }
        summary["verdict"] = report.verdict
    write_manifest(os.path.join(out, "stability.json"), summary)
    print(json.dumps({k: summary[k] for k in summary if k != "config"}))
    return 0 if summary.get("verdict", True) else 2


def cmd_mathieu_trace(cfg):
    trace = mathieu_trace(cfg["drive"], cfg["t_end"], dt=cfg["dt"],
                          epsilon=cfg["epsilon"], omega0=cfg["omega0"])
    samples = trace.samples(trace.path.times[::cfg["stride"]])
    out = _prepare_out(cfg)
    ext = EXTENSIONS[cfg["format"]]
    write_modulation(os.path.join(out, f"trace.{ext}"), samples,
                     _meta(cfg), cfg["format"])
    write_manifest(os.path.join(out, "manifest.json"), dict(cfg))
    print(f"integrated width trace to t={cfg['t_end']:g}: "
          f"chi in [{samples.chi.min():.6f}, {samples.chi.max():.6f}]")
    return 0


# each subcommand: its handler, its help, the options it reads and its
# stepping defaults; the dumps keep an unread seed, which perfbench passes
_RUN = "family n gamma lam alpha beta epsilon omega0 drive L N t_end out "
COMMANDS = {
    "solution": (cmd_solution, "dump analytic field snapshots",
                 (_RUN + "dt stride format seed").split(),
                 {"t_end": 10.0, "dt": 1e-3, "stride": 250}),
    "potential": (cmd_potential, "dump potential and coupling lattices",
                  (_RUN + "dt stride format mu_sign seed").split(),
                  {"t_end": 10.0, "dt": 1e-3, "stride": 250}),
    "verify": (cmd_verify,
               "run constraint, potential, and equation residual suites",
               (_RUN + "seed corrupt_rho").split(), {"t_end": 5.0}),
    "propagate": (cmd_propagate, "run split-step propagation with diagnostics",
                  (_RUN + "dt stride format perturb perturb_mode seed").split(),
                  {"t_end": 10.0, "dt": 5e-4, "stride": 10}),
    "mathieu-trace": (cmd_mathieu_trace, "integrate and dump the width trace",
                      "drive epsilon omega0 t_end dt stride out format".split(),
                      {"t_end": 10.0, "dt": 1e-4, "stride": 1}),
}


# the exit code of each refusal; a check that ran and failed returns 2
EXIT_CODES = {ValueError: 1, OSError: 1, DivergenceError: 3}


def main(argv=None):
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # the root parser would refuse them in its own name
            raise ValidationError(f"modcnls {args.command}: unrecognized "
                                  f"arguments: {' '.join(extra)}")
        return COMMANDS[args.command][0](resolve(args))
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
