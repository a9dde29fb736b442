"""Each script under scripts/ imports cleanly and parses `--help`; the
temperature sweep also runs end to end at tiny sizes."""

import json

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(script), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_zero(script):
    done = run_script(script, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_temperature_sweep_script_writes_sweep(tmp_path):
    done = run_script(ROOT / "scripts/run_temperature_sweep.py", "--out", str(tmp_path),
                      "--samples", "5", "--budget", "1", "--temperatures", "0.5,1e6")
    assert done.returncode == 0, done.stderr
    rows = json.loads((tmp_path / "sweep/sweep.json").read_text())["rows"]
    assert [r["value"] for r in rows] == [0.5, 1e6]
    assert all(r["axis"] == "T" and r["density_entropy"] > 0.0 for r in rows)
    assert "monotone: True" in done.stdout
