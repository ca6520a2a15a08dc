"""Every demo, and every Python block of the README, runs to completion
against the current package.

Each demo is copied into a temporary directory and run from there, so the
CSV files it writes next to itself stay out of the source tree.
"""

import os
import pathlib
import re
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


# the README's ```python blocks, in order
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (REPO / "README.md").read_text(), re.M | re.S)


def run_script(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", sorted(WRITES))
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo
    shutil.copy(REPO / "demos" / demo, script)
    run = run_script(script, tmp_path)
    assert run.returncode == 0, run.stderr
    for name in WRITES[demo]:
        assert (tmp_path / "output" / name).stat().st_size > 0


def test_readme_has_python_blocks():
    assert README_BLOCKS  # the library quick start at least


@pytest.mark.parametrize("k", range(len(README_BLOCKS)))
def test_readme_python_block_runs(tmp_path, k):
    script = tmp_path / f"readme_{k}.py"
    script.write_text(README_BLOCKS[k])
    run = run_script(script, tmp_path)
    assert run.returncode == 0, run.stderr
