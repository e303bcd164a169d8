"""Cold-start guard: importing the package and running a study load no
scipy module; only a collar resample imports scipy.interpolate.

Each check runs in a fresh interpreter with this checkout's src on
PYTHONPATH, since this process's sys.modules already holds what other
tests imported.
"""

import json
import os
import subprocess
import sys

import pytest

from test_cli import SMALL

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
# the last line a check prints: the scipy modules the interpreter holds
PRINT_SCIPY = ("import json, sys; print(json.dumps(sorted("
               "m for m in sys.modules if m.startswith('scipy'))))")


def _scipy_modules_after(code, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", f"{code}\n{PRINT_SCIPY}"],
                         env=env, cwd=cwd, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["pressure_lab", "pressure_lab.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    assert _scipy_modules_after(f"import {module}", tmp_path) == []


def test_study_loads_no_scipy(tmp_path):
    argv = ["study", *SMALL,
            "--set", "study.alphas=[0.5]", "--set", "study.seeds=[0]",
            "--set", "study.etas=[0.0125]", "--set", "field.j_max=1",
            "--out", str(tmp_path / "study"), "--jobs", "1"]
    code = ("from pressure_lab import cli\n"
            f"assert cli.main({argv!r}) == 0")
    assert _scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "study" / "ledger.csv").exists()


def test_on_collar_imports_scipy_interpolate(tmp_path):
    # 1 - rho^2 is even in rho and constant in theta: the pole value and the
    # bicubic spline reproduce it, so the resample is exact to rounding
    code = """
import numpy as np
from pressure_lab.fields import InteriorChart
from pressure_lab.geometry import GeodesicChart, build_curve
curve = build_curve({"kind": "circle", "radius": 1.0}, 128)
chart = InteriorChart(curve, 32, 64)
collar = GeodesicChart(curve, 0.4, 32, 64)
got = chart.on_collar(1.0 - chart.rho[:, None] ** 2 + 0.0 * chart.theta,
                      collar)
want = 1.0 - (1.0 - collar.s[:, None]) ** 2
assert got.shape == (33, 64)
assert np.max(np.abs(got - want)) < 1e-12, np.max(np.abs(got - want))
"""
    assert "scipy.interpolate" in _scipy_modules_after(code, tmp_path)
