"""Outside-in layer tracing for the modcnls benchmark.

A Tracer replaces the package's functions at the module attributes through
which the package itself calls them (``modcnls.cli.propagate``,
``modcnls.families.jacobi_elliptic``, ``CoefficientSampler.potential`` and
so on) with wrappers that time each call, and puts the originals back when
the ``installed()`` block ends.  No line of the package changes.

Every wrapped call is a span of one layer; the package's modules are the
layers.  A span's self time is its duration minus the time its wrapped
children took, so the self times of all layers add up to the root span, one
``cli.main`` call.  Some spans also carry a key (``sampler``, ``jacobi``,
...): the key's inclusive time and call count are taken at the outermost
call only, so a query that calls another query of the same key is counted
once.
"""

import contextlib
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "propagator", "transform", "families", "modulation",
          "specfun", "export")

# key -> (layer, inclusive-time metric, call-count metric or None)
KEYED = {
    "pde_residual": ("propagator", "propagator.pde_residual_s", None),
    "sampler": ("transform", "transform.sampler_s",
                "transform.sampler_calls"),
    "constraints": ("transform", "transform.constraints_s", None),
    "jacobi": ("specfun", "specfun.jacobi_s", None),
    "erf": ("specfun", "specfun.erf_s", None),
    "erfc": ("specfun", "specfun.erfc_s", None),
    "erfi": ("specfun", "specfun.erfi_s", None),
    "trace_build": ("modulation", "modulation.trace_build_s", None),
    "query": ("modulation", "modulation.query_s", "modulation.query_calls"),
    "assemble": ("families", "families.assemble_s",
                 "families.assemble_calls"),
    "write": ("export", "export.write_s", None),
}

# every count a traced run reports, including those that stay 0 on a workload
COUNTS = (
    "propagator.steps", "propagator.ffts", "propagator.records",
    "transform.sampler_calls", "transform.lattice_points",
    "specfun.jacobi_points", "specfun.erf_points",
    "modulation.mathieu_steps", "modulation.query_calls",
    "modulation.query_points", "families.assemble_calls",
    "export.bytes", "export.rows",
) + tuple(f"{layer}.errors" for layer in LAYERS)

# FFTs per Strang step: forward and inverse, two half kinetic steps, two
# components.  Computed from the step count, not counted.
FFTS_PER_STEP = 8


def _points(arg):
    return int(np.size(arg))


def _on_propagate(counts, args, kwargs, result):
    cfg = args[1]
    counts["propagator.steps"] += cfg.n_steps
    counts["propagator.ffts"] += FFTS_PER_STEP * cfg.n_steps
    counts["propagator.records"] += len(result)


def _on_constraints(counts, args, kwargs, result):
    counts["transform.lattice_points"] += _points(args[2]) * _points(args[3])


def _on_mathieu(counts, args, kwargs, result):
    if result.path is not None:
        counts["modulation.mathieu_steps"] += len(result.path.times) - 1


def _on_query(counts, args, kwargs, result):
    counts["modulation.query_points"] += _points(args[1])


def _points_of(metric, position):
    def on_return(counts, args, kwargs, result):
        counts[metric] += _points(args[position])
    return on_return


def _written(rows_of):
    def on_return(counts, args, kwargs, result):
        counts["export.bytes"] += os.path.getsize(args[0])
        counts["export.rows"] += rows_of(args)
    return on_return


def _targets(mc):
    """(owner, attribute, layer, key, on_return) for every wrapped call."""
    cli, fam, tr, prop = mc.cli, mc.families, mc.transform, mc.propagator
    trace_cls = mc.modulation.ModulationTrace
    sampler_cls = tr.CoefficientSampler
    targets = [
        (cli, "propagate", "propagator", None, _on_propagate),
        (cli, "perturb", "propagator", None, None),
        (cli, "stability_verdict", "propagator", None, None),
        (cli, "pde_residual", "propagator", "pde_residual", None),
        (sampler_cls, "potential", "transform", "sampler", None),
        (sampler_cls, "couplings", "transform", "sampler", None),
        (cli, "verify_constraints", "transform", "constraints",
         _on_constraints),
        (cli, "potential_identity_check", "transform", None, None),
        (fam, "rho_of", "transform", None, None),
        (fam, "zeta_of", "transform", None, None),
        (fam, "eta_of", "transform", None, None),
        (fam, "jacobi_elliptic", "specfun", "jacobi",
         _points_of("specfun.jacobi_points", 0)),
        (fam, "erfc", "specfun", "erfc", None),
        (fam, "erfcx", "specfun", "erfc", None),
        (fam, "ellip_k", "specfun", None, None),
        (tr, "erf", "specfun", "erf", _points_of("specfun.erf_points", 0)),
        (tr, "erfi", "specfun", "erfi", None),
        (tr, "drive_f", "modulation", None, None),
        (fam, "mathieu_trace", "modulation", "trace_build", _on_mathieu),
        (fam, "closed_form_trace", "modulation", "trace_build", None),
        (fam, "explicit_trace", "modulation", "trace_build", None),
        (cli, "mathieu_trace", "modulation", "trace_build", _on_mathieu),
        (cli, "assemble", "families", "assemble", None),
        (prop, "assemble", "families", "assemble", None),
        (cli, "default_trace", "families", None, None),
        (cli, "default_grid", "families", None, None),
        (cli, "write_fields", "export", "write",
         _written(lambda a: len(a[1].x))),
        (cli, "write_coefficients", "export", "write",
         _written(lambda a: len(a[2]) * len(a[3]))),
        (cli, "write_diagnostics", "export", "write",
         _written(lambda a: len(a[1]))),
        (cli, "write_modulation", "export", "write",
         _written(lambda a: len(a[1].times))),
        (cli, "write_manifest", "export", "write", _written(lambda a: 0)),
    ]
    for name in ("chi_at", "dchi_dt_at", "d2chi_dt2_at", "a_at", "adot_at"):
        targets.append((trace_cls, name, "modulation", "query", _on_query))
    return targets


def _distinct_key(key, name, args):
    """What makes two calls do the same work, for the distinct ratios."""
    if key == "sampler":
        return (name, float(args[2]))
    if key == "assemble":
        x = np.asarray(args[2])
        return (float(args[3]), x.size, float(x[0]), float(x[-1]))
    return None


class Tracer:
    """Spans and counts of one traced command sequence.

    Use one Tracer per sequence: ``with tracer.installed(): ...`` wraps the
    package, ``tracer.span("cli", cli.main, (argv,))`` opens the root span, and
    ``metrics()`` reads the totals afterwards.
    """

    def __init__(self, modcnls_modules):
        self._modules = modcnls_modules
        self._stack = []                 # child time of each open span
        self._depth = defaultdict(int)   # open spans per key
        self.self_s = defaultdict(float)
        self.key_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._seen = defaultdict(set)

    def span(self, layer, fn, args, kwargs=None, key=None, name=None,
             on_return=None):
        """Call fn(*args, **kwargs) as one span of layer; book time, counts."""
        kwargs = kwargs or {}
        self._stack.append(0.0)
        self._depth[key] += 1
        outermost = key is not None and self._depth[key] == 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.counts[f"{layer}.errors"] += 1
            raise
        finally:
            elapsed = time.perf_counter() - t0
            self._depth[key] -= 1
            self.self_s[layer] += elapsed - self._stack.pop()
            if self._stack:
                self._stack[-1] += elapsed
            if outermost:
                self.key_s[key] += elapsed
        if outermost and KEYED[key][2] is not None:
            self.counts[KEYED[key][2]] += 1
        if key is None or outermost:
            # a count that cannot be read raises into the package, so the
            # command fails instead of the count silently reading 0
            distinct = _distinct_key(key, name, args)
            if distinct is not None:
                self._seen[key].add(distinct)
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
        return result

    def _wrapper(self, original, layer, key, name, on_return):
        def traced(*args, **kwargs):
            return self.span(layer, original, args, kwargs, key, name,
                             on_return)
        traced.__wrapped__ = original
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's call sites for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer, key, on_return in _targets(self._modules):
                original = owner.__dict__.get(attr)
                if original is None:
                    # the package no longer calls through this attribute;
                    # its time would silently move to the caller
                    raise RuntimeError(
                        f"layer tracer: {owner.__name__}.{attr} is gone; "
                        "update perfbench/layers.py")
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrapper(original, layer, key, attr, on_return))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self):
        """Flat name -> value map of every per-layer total of this sequence."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for key, (_, time_metric, _) in KEYED.items():
            out[time_metric] = self.key_s[key]
        for name in COUNTS:
            out[name] = self.counts[name]
        for key, metric, calls in (
                ("sampler", "transform.sampler_distinct_ratio",
                 "transform.sampler_calls"),
                ("assemble", "families.assemble_distinct_ratio",
                 "families.assemble_calls")):
            n = self.counts[calls]
            out[metric] = len(self._seen[key]) / n if n else 0.0
        out["trace.self_total_s"] = sum(self.self_s[layer] for layer in LAYERS)
        return out
