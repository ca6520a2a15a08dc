"""Command-line front end.

Subcommands map to the package's activities: solution and potential dump
analytic lattices, verify runs the constraint/potential/equation residual
suites, propagate runs split-step experiments with optional perturbation,
and mathieu-trace dumps the integrated width trace.

Configuration precedence: built-in defaults, then a key=value config file
given with --config, then command-line flags.  Exit codes: 0 success,
1 validation or configuration error, 2 verification failure, 3 numerical
divergence.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (DarkBackgroundError, DivergenceError, ValidationError,
                     VerificationError)
from .export import (EXTENSIONS, FORMATS, write_coefficients,
                     write_diagnostics, write_fields, write_manifest,
                     write_modulation)
from .families import (assemble, dark_bright_family, default_grid,
                       default_trace, elliptic_family, sech_family)
from .grid import SpatialGrid
from .modulation import mathieu_trace
from .propagator import (PropagationConfig, pde_residual, perturb, propagate,
                         stability_verdict)
from .transform import (CoefficientSampler, potential_identity_check,
                        verify_constraints)

DEFAULTS = {
    "family": "elliptic",
    "n": 1,
    "gamma": 6.0,
    "lam": 0.5,
    "alpha": 0.3,
    "beta": 0.2,
    "epsilon": 0.5,
    "omega0": 1.0,
    "drive": "periodic",
    "L": None,
    "N": 1024,
    "t_end": None,
    "dt": None,
    "stride": None,
    "perturb": 0.03,
    "perturb_mode": "multiplicative",
    "seed": 42,
    "out": None,
    "override_dark": False,
    "mu_sign": "standard",
    "format": "csv",
    "corrupt_rho": 0.0,
}

# the allowed values of the choice keys, for flags and config files alike
CHOICES = {"family": ("elliptic", "sech", "dark-bright"),
           "drive": ("periodic", "quasiperiodic"),
           "perturb_mode": ("multiplicative", "additive"),
           "mu_sign": ("standard", "flipped"),
           "format": FORMATS}

# per-command fallbacks for the time-stepping knobs
COMMAND_DEFAULTS = {
    "solution": {"t_end": 10.0, "dt": 1e-3, "stride": 250},
    "potential": {"t_end": 10.0, "dt": 1e-3, "stride": 250},
    "verify": {"t_end": 5.0, "dt": 1e-4, "stride": 1},
    "propagate": {"t_end": 10.0, "dt": 5e-4, "stride": 10},
    "mathieu-trace": {"t_end": 10.0, "dt": 1e-4, "stride": 1},
}

_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modcnls",
        description="Modulated coupled nonlinear Schrodinger toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solution", "dump analytic field snapshots"),
        ("potential", "dump potential and coupling lattices"),
        ("verify", "run constraint, potential, and equation residual suites"),
        ("propagate", "run split-step propagation with diagnostics"),
        ("mathieu-trace", "integrate and dump the width trace"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None,
                       help="key=value file applied between defaults and flags")
        p.add_argument("--family", choices=CHOICES["family"], default=None)
        p.add_argument("--n", type=int, default=None,
                       help="elliptic mode index")
        p.add_argument("--gamma", type=float, default=None,
                       help="sech width parameter")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="dark-bright shape parameter")
        p.add_argument("--alpha", type=float, default=None,
                       help="dark-bright width tone at frequency 1")
        p.add_argument("--beta", type=float, default=None,
                       help="dark-bright width tone at frequency sqrt(2)")
        p.add_argument("--epsilon", type=float, default=None,
                       help="drive modulation depth")
        p.add_argument("--omega0", type=float, default=None,
                       help="drive modulation frequency")
        p.add_argument("--drive", choices=CHOICES["drive"], default=None)
        p.add_argument("--L", type=float, default=None,
                       help="grid half width (default sized per family)")
        p.add_argument("--N", type=int, default=None,
                       help="grid points, a power of two")
        p.add_argument("--t-end", dest="t_end", type=float, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--stride", type=int, default=None,
                       help="steps between snapshots or records")
        p.add_argument("--perturb", type=float, default=None,
                       help="perturbation amplitude for propagate")
        p.add_argument("--perturb-mode", dest="perturb_mode",
                       choices=CHOICES["perturb_mode"], default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--override-dark", dest="override_dark",
                       action="store_const", const=True, default=None)
        p.add_argument("--mu-sign", dest="mu_sign",
                       choices=CHOICES["mu_sign"], default=None,
                       help="sign convention of the chemical-potential pair")
        p.add_argument("--format", choices=CHOICES["format"], default=None)
        p.add_argument("--corrupt-rho", dest="corrupt_rho", type=float,
                       default=None, help="verify: scale rho by (1 + c x)")
    return parser


def _coerce(key, raw):
    template = DEFAULTS[key]
    if key in ("L", "t_end", "dt", "stride", "out"):
        # None-defaulted knobs carry their own types
        if key == "out":
            return raw
        if key in ("stride",):
            return int(raw)
        return float(raw)
    if key in CHOICES and raw not in CHOICES[key]:
        raise ValidationError(f"config: unknown {key} {raw!r}")
    if isinstance(template, bool):
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValidationError(f"config: bad boolean for {key}: {raw!r}")
        return _BOOL_WORDS[word]
    if isinstance(template, int):
        return int(raw)
    if isinstance(template, float):
        return float(raw)
    return raw


def load_config_file(path):
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
        key, value = text.split("=", 1)
        key = key.strip().replace("-", "_")
        if key == "lambda":
            key = "lam"
        if key not in DEFAULTS:
            raise ValidationError(f"config file {path}:{i}: unknown key {key!r}")
        pairs[key] = _coerce(key, value.strip())
    return pairs


def resolve(args):
    cfg = dict(DEFAULTS)
    cfg.update(COMMAND_DEFAULTS[args.command])
    if args.config is not None:
        cfg.update(load_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if cfg["out"] is None:
        cfg["out"] = f"modcnls-{args.command}"
    cfg["command"] = args.command
    cfg["version"] = __version__
    return cfg


def _family_from(cfg):
    kind = cfg["family"].replace("-", "_")  # a CHOICES["family"] value
    if kind == "elliptic":
        return elliptic_family(cfg["n"])
    if kind == "sech":
        return sech_family(cfg["gamma"])
    return dark_bright_family(cfg["lam"])


def _trace_from(cfg, family, t_end):
    return default_trace(family, drive=cfg["drive"], t_end=t_end,
                         epsilon=cfg["epsilon"], omega0=cfg["omega0"],
                         alpha=cfg["alpha"], beta=cfg["beta"])


def _grid_from(cfg, family, purpose):
    if cfg["L"] is not None:
        return SpatialGrid(cfg["L"], cfg["N"])
    return default_grid(family, purpose, n_points=cfg["N"], drive=cfg["drive"])


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
    meta = {k: v for k, v in sorted(cfg.items()) if v is not None}
    meta.update(extra)
    return meta


def _snapshot_times(cfg):
    interval = cfg["stride"] * cfg["dt"]
    count = int(np.floor(cfg["t_end"] / interval + 1e-9))
    return [k * interval for k in range(count + 1)]


def cmd_solution(cfg):
    family = _family_from(cfg)
    grid = _grid_from(cfg, family, "export")
    times = _snapshot_times(cfg)
    trace = _trace_from(cfg, family, cfg["t_end"] + 2 * cfg["dt"])
    out = _prepare_out(cfg)
    ext = EXTENSIONS[cfg["format"]]
    names = []
    for idx, t in enumerate(times):
        fields = assemble(family, trace, grid.x, t)
        name = f"fields_{idx:04d}.{ext}"
        write_fields(os.path.join(out, name), fields,
                     _meta(cfg, t=repr(float(t))), cfg["format"])
        names.append(name)
    write_manifest(os.path.join(out, "manifest.json"),
                   {**{k: v for k, v in cfg.items()},
                    "times": times, "files": names})
    print(f"wrote {len(names)} field snapshots to {out}")
    return 0


def cmd_potential(cfg):
    family = _family_from(cfg)
    if cfg["mu_sign"] == "flipped":
        family = dataclasses.replace(
            family, mu=(-family.mu[0], -family.mu[1]))
    grid = _grid_from(cfg, family, "export")
    times = _snapshot_times(cfg)
    trace = _trace_from(cfg, family, cfg["t_end"] + 2 * cfg["dt"])
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


def _constraint_lattice(family, drive):
    """Reference lattices sized so discretization residuals clear 1e-5."""
    if family.kind == "elliptic":
        if drive == "quasiperiodic":
            return np.linspace(-1, 1, 2560), np.linspace(0, 1, 6144)
        return np.linspace(-1, 1, 1024), np.linspace(0, 1, 2048)
    if family.kind == "sech":
        if drive == "quasiperiodic":
            return np.linspace(-5, 5, 768), np.linspace(0, 1, 1536)
        return np.linspace(-5, 5, 512), np.linspace(0, 1, 1536)
    return np.linspace(-5, 5, 512), np.linspace(0, 1, 512)


def cmd_verify(cfg):
    if not np.isfinite(cfg["corrupt_rho"]):
        raise ValidationError(
            f"corrupt_rho must be finite, got {cfg['corrupt_rho']}")
    family = _family_from(cfg)
    grid = _grid_from(cfg, family, "residual")
    t_end = max(cfg["t_end"], 1.0)
    trace = _trace_from(cfg, family, t_end + 1e-2)
    out = _prepare_out(cfg)
    failures = []

    x_lat, t_lat = _constraint_lattice(family, cfg["drive"])
    clock = [time.perf_counter()]
    residuals = verify_constraints(family, trace, x_lat, t_lat,
                                   corrupt_rho=cfg["corrupt_rho"])
    # every gate passes only on value <= threshold, so NaN fails
    for name in ("continuity", "advection", "flux"):
        if not getattr(residuals, name) <= 1e-5:
            failures.append(name)
    clock.append(time.perf_counter())

    half = {"elliptic": 10.0, "sech": 20.0, "dark_bright": 15.0}[family.kind]
    x_pot = np.linspace(-half, half, 768)
    gap = potential_identity_check(family, trace, x_pot, min(1.3, t_end))
    if not gap <= 1e-4:
        failures.append("potential_identity")
    clock.append(time.perf_counter())

    rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
    times = sorted(rng.uniform(0.05, min(5.0, t_end), 5).tolist())
    # ndarray.max keeps a NaN that the builtin max would drop
    worst = np.array([pde_residual(family, grid, float(t), trace)
                      for t in times]).max(axis=0).tolist()
    if not (worst[0] <= 1e-4 and worst[1] <= 1e-4):
        failures.append("pde_residual")
    clock.append(time.perf_counter())

    report = {
        "config": {k: v for k, v in cfg.items()},
        "constraints": {
            "continuity": residuals.continuity,
            "advection": residuals.advection,
            "flux": residuals.flux,
            "threshold": 1e-5,
        },
        "potential_identity": {"gap": gap, "threshold": 1e-4},
        "pde_residual": {"times": times, "worst1": worst[0],
                         "worst2": worst[1], "threshold": 1e-4},
        "timing": dict(zip(("constraints_s", "potential_identity_s",
                            "pde_residual_s"), np.diff(clock).tolist()),
                       constraint_workers=residuals.workers),
        "failures": failures,
        "pass": not failures,
    }
    write_manifest(os.path.join(out, "report.json"), report)
    print(json.dumps({"pass": report["pass"], "failures": failures}))
    return 0 if report["pass"] else 2


def cmd_propagate(cfg):
    family = _family_from(cfg)
    if family.kind == "dark_bright" and not cfg["override_dark"]:
        raise DarkBackgroundError(
            "the dark-bright background wraps around the periodic box; "
            "propagation is refused without --override-dark"
        )
    if not 0.0 <= cfg["perturb"] < 0.2:
        raise ValidationError(
            f"--perturb must lie in [0, 0.2), got {cfg['perturb']:g}; larger "
            "values void the small-perturbation premise")
    grid = _grid_from(cfg, family, "propagate")
    trace = _trace_from(cfg, family, cfg["t_end"] + 1e-2)
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
    diags = propagate(members, run, reference=(family, trace),
                      override_dark=cfg["override_dark"])
    for diag, name, tag in zip(diags, ("unperturbed", "perturbed"),
                               ("no", "yes")):
        write_diagnostics(os.path.join(out, f"diagnostics_{name}.{ext}"),
                          diag, _meta(cfg, perturbed=tag), cfg["format"])
    summary = {
        "config": {k: v for k, v in cfg.items()},
        "unperturbed": {
            "max_profile_error": diags[0].max_profile_error(),
            "norm_drift": diags[0].norm_drift(),
        },
    }
    code = 0
    if len(diags) > 1:
        report = stability_verdict(diags[1], threshold=0.1)
        summary["perturbed"] = {
            "max_profile_error": report.max_profile_error,
            "time_of_max": report.time_of_max,
            "threshold": report.threshold,
        }
        summary["verdict"] = report.verdict
        if not report.verdict:
            code = 2
    write_manifest(os.path.join(out, "stability.json"), summary)
    print(json.dumps({k: summary[k] for k in summary if k != "config"}))
    return code


def cmd_mathieu_trace(cfg):
    kind = "constant" if cfg["drive"] == "periodic" else "quasiperiodic"
    trace = mathieu_trace(kind, cfg["t_end"], dt=cfg["dt"],
                          epsilon=cfg["epsilon"], omega0=cfg["omega0"])
    out = _prepare_out(cfg)
    ext = EXTENSIONS[cfg["format"]]
    write_modulation(os.path.join(out, f"trace.{ext}"), trace,
                     _meta(cfg), cfg["format"])
    write_manifest(os.path.join(out, "manifest.json"), dict(cfg))
    print(f"integrated width trace to t={cfg['t_end']:g}: "
          f"chi in [{trace.chi.min():.6f}, {trace.chi.max():.6f}]")
    return 0


DISPATCH = {
    "solution": cmd_solution,
    "potential": cmd_potential,
    "verify": cmd_verify,
    "propagate": cmd_propagate,
    "mathieu-trace": cmd_mathieu_trace,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve(args)
        return DISPATCH[args.command](cfg)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DarkBackgroundError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numerical divergence at t={exc.t:g}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
