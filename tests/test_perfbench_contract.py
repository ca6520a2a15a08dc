"""The benchmark's layer tracer still fits the package.

perfbench/layers.py wraps the package's functions at named module
attributes; a renamed or removed attribute makes every traced benchmark run
stop.  These checks load the tracer from the checkout and fail fast instead.
"""

import importlib.util
import multiprocessing
import pathlib

import modcnls
import modcnls.cli
from worker_helpers import force_workers

LAYERS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    layers = load_layers()
    # the tracer's own test: the attribute in the owner's namespace
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in layers._targets(modcnls)
               if owner.__dict__.get(attr) is None]
    assert missing == []


def traced_metrics(*argvs):
    """The tracer's metrics over CLI runs of argvs, each of which must exit 0."""
    layers = load_layers()
    tracer = layers.Tracer(modcnls)
    with tracer.installed():
        for argv in argvs:
            assert tracer.span("cli", modcnls.cli.main, (argv,)) == 0, argv
    metrics = tracer.metrics()
    errors = {name: value for name, value in metrics.items()
              if name.endswith(".errors") and value}
    assert errors == {}
    return metrics


def test_traced_propagate_counts_its_layers(tmp_path):
    metrics = traced_metrics(
        ["propagate", "--family", "elliptic", "--drive", "periodic",
         "--perturb", "0.03", "--seed", "1", "--t-end", "0.05",
         "--out", str(tmp_path / "out")])
    for name in ("transform.sampler_calls", "families.assemble_calls",
                 "specfun.jacobi_points", "modulation.query_calls"):
        assert metrics[name] > 0, name


def traced_dump(tmp_path):
    # the dump workload's commands at its smoke horizon
    common = ["--family", "sech", "--drive", "quasiperiodic",
              "--t-end", "0.25"]
    metrics = traced_metrics(
        *[[command, *common, "--out", str(tmp_path / command)]
          for command in ("solution", "potential")])
    for name in ("export.rows", "export.bytes", "modulation.mathieu_steps",
                 "transform.sampler_calls", "families.assemble_calls"):
        assert metrics[name] > 0, name


def test_traced_dump_counts_its_layers(tmp_path):
    traced_dump(tmp_path)


def test_traced_dump_in_forked_workers(tmp_path, monkeypatch):
    # the tracer's wrappers also run inside the workers, which keep their
    # own counts; the caller's share still counts
    forked = force_workers(monkeypatch, 2)
    traced_dump(tmp_path)
    assert len(forked) == 2  # one worker per command
    assert multiprocessing.active_children() == []


def traced_verify(tmp_path):
    # the constraint walk on a 640 x 769 lattice; the erf count is only
    # checked for being nonzero, as the strips that forked workers walk
    # are counted in the workers
    metrics = traced_metrics(
        ["verify", "--family", "elliptic", "--drive", "periodic",
         "--t-end", "1", "--out", str(tmp_path / "v")])
    assert metrics["transform.lattice_points"] == 640 * 769
    for name in ("specfun.erf_points", "transform.constraints_s",
                 "modulation.query_points"):
        assert metrics[name] > 0, name


def test_traced_verify_counts_its_layers(tmp_path):
    traced_verify(tmp_path)


def test_traced_verify_in_forked_workers(tmp_path, monkeypatch):
    # the caller's strip still counts while a worker walks the other
    forked = force_workers(monkeypatch, 2)
    traced_verify(tmp_path)
    assert len(forked) == 1  # the walk's one worker
    assert multiprocessing.active_children() == []


def test_traced_mathieu_trace_counts_its_rows(tmp_path):
    # write_modulation is handed the trace's samples at the path's nodes,
    # and the tracer counts their times as the rows written
    metrics = traced_metrics(
        ["mathieu-trace", "--drive", "quasiperiodic", "--t-end", "0.5",
         "--dt", "1e-3", "--out", str(tmp_path / "m")])
    assert metrics["modulation.mathieu_steps"] == 500
    assert metrics["export.rows"] == 501
    assert metrics["export.bytes"] > 0
