"""The benchmark's layer tracer still fits the package.

perfbench/layers.py wraps the package's functions at named module
attributes; a renamed or removed attribute makes every traced benchmark run
stop.  These checks load the tracer from the checkout and fail fast instead.
Each workload's commands, at the horizons perfbench/smoke.py cuts them to,
must move every count the smoke check requires of it.
"""

import importlib.util
import pathlib
import sys

import modcnls
import modcnls.cli
from modcnls.families import elliptic_family
from worker_helpers import assert_reaped, force_workers

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a module.  The benchmark's scripts import
    each other by their top-level names, so the directory is on sys.path
    while it loads, and the modules loaded from it leave sys.modules
    again."""
    before = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        for added in set(sys.modules) - before:
            origin = getattr(sys.modules[added], "__file__", None) or ""
            if pathlib.Path(origin).parent == PERFBENCH:
                del sys.modules[added]
    return module


def load_layers():
    return load_perfbench("layers")


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


def unmoved_counts(tmp_path, workload):
    """The counts perfbench/smoke.py requires of the workload that its
    commands, traced at smoke's horizon, leave at 0."""
    smoke = load_perfbench("smoke")
    commands = smoke.WORKLOADS[workload].commands(
        1, str(tmp_path / workload), smoke.TINY_T_END[workload])
    metrics = traced_metrics(*[command.argv for command in commands])
    return [name for name in smoke.KEY_COUNTS[workload] if not metrics[name]]


def test_traced_workloads_move_every_count_smoke_requires(tmp_path):
    smoke = load_perfbench("smoke")
    assert sorted(smoke.KEY_COUNTS) == sorted(smoke.WORKLOADS)
    unmoved = {workload: unmoved_counts(tmp_path, workload)
               for workload in smoke.KEY_COUNTS}
    assert unmoved == {workload: [] for workload in smoke.KEY_COUNTS}


def test_traced_dump_in_forked_workers(tmp_path, monkeypatch):
    # the tracer's wrappers also run inside the workers, which keep their
    # own counts; the caller's share still counts
    forked = force_workers(monkeypatch, 2)
    assert unmoved_counts(tmp_path, "dump_quasi") == []
    assert len(forked) == 2  # one worker per command
    assert_reaped(forked)


def traced_verify(tmp_path):
    # the constraint walk on _constraint_lattice's lattice, in the calling
    # process, so its erf calls see every lattice point
    metrics = traced_metrics(
        ["verify", "--family", "elliptic", "--drive", "periodic",
         "--t-end", "1", "--out", str(tmp_path / "v")])
    family = elliptic_family(1)
    x, t = modcnls.cli._constraint_lattice(family, 1.0)
    assert metrics["transform.lattice_points"] == len(x) * len(t)
    assert metrics["specfun.erf_points"] >= len(x) * len(t)
    for name in ("transform.constraints_s", "modulation.query_points"):
        assert metrics[name] > 0, name


def test_traced_verify_counts_its_layers(tmp_path):
    traced_verify(tmp_path)


def test_traced_verify_in_forked_workers(tmp_path, monkeypatch):
    # with every forked_map given two processes, verify still forks
    # nothing, and its counts are whole
    forked = force_workers(monkeypatch, 2)
    traced_verify(tmp_path)
    assert forked == []


def test_traced_mathieu_trace_counts_its_rows(tmp_path):
    # write_modulation is handed the trace's samples at the path's nodes,
    # and the tracer counts their times as the rows written
    metrics = traced_metrics(
        ["mathieu-trace", "--drive", "quasiperiodic", "--t-end", "0.5",
         "--dt", "1e-3", "--out", str(tmp_path / "m")])
    assert metrics["modulation.mathieu_steps"] == 500
    assert metrics["export.rows"] == 501
    assert metrics["export.bytes"] > 0


def test_traced_quasiperiodic_verify_counts_its_path_steps(tmp_path):
    # verify builds one width, to t_end, as its time derivatives are
    # complex steps, and the tracer counts that path's steps
    metrics = traced_metrics(
        ["verify", "--family", "elliptic", "--drive", "quasiperiodic",
         "--t-end", "1", "--out", str(tmp_path / "v")])
    assert metrics["modulation.mathieu_steps"] == 10_000
