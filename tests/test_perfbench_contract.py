"""The benchmark's layer tracer still fits the package.

perfbench/layers.py wraps the package's functions at named module
attributes; a renamed or removed attribute makes every traced benchmark run
stop.  These checks load the tracer from the checkout and fail fast instead.
"""

import importlib.util
import pathlib

import modcnls
import modcnls.cli

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


def test_traced_propagate_counts_its_layers(tmp_path):
    layers = load_layers()
    tracer = layers.Tracer(modcnls)
    argv = ["propagate", "--family", "elliptic", "--drive", "periodic",
            "--perturb", "0.03", "--seed", "1", "--t-end", "0.05",
            "--out", str(tmp_path / "out")]
    with tracer.installed():
        code = tracer.span("cli", modcnls.cli.main, (argv,))
    assert code == 0
    metrics = tracer.metrics()
    for name in ("transform.sampler_calls", "families.assemble_calls",
                 "specfun.jacobi_points"):
        assert metrics[name] > 0, name
    errors = {name: value for name, value in metrics.items()
              if name.endswith(".errors") and value}
    assert errors == {}
