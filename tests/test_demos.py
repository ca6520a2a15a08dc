"""Every demo runs to completion against the current package.

Each demo is copied into a temporary directory and run from there, so the
CSV files it writes next to itself stay out of the source tree.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]


# demo -> the files it writes into output/ next to itself
WRITES = {
    "family_gallery.py": ("fields_elliptic.csv", "fields_sech.csv",
                          "fields_dark_bright.csv"),
    "special_function_tour.py": ("elliptic_triple.csv",),
    "stability_run.py": ("diagnostics_clean.csv", "diagnostics_perturbed.csv"),
    "width_modulation_tour.py": ("chi_constant.csv", "chi_quasiperiodic.csv"),
}


@pytest.mark.parametrize("demo", sorted(WRITES))
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo
    shutil.copy(REPO / "demos" / demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    for name in WRITES[demo]:
        assert (tmp_path / "output" / name).stat().st_size > 0
