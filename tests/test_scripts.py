"""Each script under scripts/ imports cleanly and parses `--help`; the
temperature sweep also runs end to end at tiny sizes, and the criterion 09
state check once per state."""

import json

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_bitwise_sweep_compare_counts_bytes_and_groups_worst(tmp_path):
    a = {"n/loss": np.array(0.5), "n/output": np.array([[1.0, 2.0]]),
         "n/grad/w": np.array([1.0, -2.0]), "n/step2/w": np.array([3.0, 4.0]),
         "n/checkpoint": np.array([0, 7, 9, 255], dtype=np.uint8),
         "data/darcy-s0/targets": np.array([[0.25, 0.5]])}
    b = dict(a)
    b["data/darcy-s0/targets"] = np.array([[0.25, 0.5 + 2.0**-50]])
    b["n/grad/w"] = np.array([1.0, -2.0 + 2.0**-47])
    b["n/step2/w"] = np.array([3.0 + 2.0**-38, 4.0])
    b["n/checkpoint"] = np.array([255, 7, 9, 0], dtype=np.uint8)
    for name, arrays in (("a", a), ("b", b)):
        np.savez(tmp_path / f"{name}.npz", **arrays)
    done = run_script(ROOT / "scripts/bitwise_sweep.py", "--compare",
                      str(tmp_path / "a.npz"), str(tmp_path / "b.npz"))
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert "differs: n/checkpoint 2 of 4 bytes" in lines
    assert "4 of 6 arrays differ" in lines
    assert "worst forward: none differ" in lines
    assert "worst grad: n/grad/w max abs 7.105e-15 rel 3.553e-15" in lines
    assert "worst step2: n/step2/w max abs 3.638e-12 rel 9.095e-13" in lines
    assert "worst data: data/darcy-s0/targets max abs 8.882e-16 rel 1.776e-15" in lines
    same = run_script(ROOT / "scripts/bitwise_sweep.py", "--compare",
                      str(tmp_path / "a.npz"), str(tmp_path / "a.npz"))
    assert same.returncode == 0 and "0 of 6 arrays differ" in same.stdout


def test_bitwise_sweep_compare_groups_the_frame_arrays(tmp_path):
    a = {"frame/n/forward": np.array([1.0 + 1.0j]), "frame/n/roundtrip": np.array([2.0, 4.0])}
    b = dict(a, **{"frame/n/roundtrip": np.array([2.0, 4.0 + 2.0**-50])})
    for name, arrays in (("a", a), ("b", b)):
        np.savez(tmp_path / f"{name}.npz", **arrays)
    done = run_script(ROOT / "scripts/bitwise_sweep.py", "--compare",
                      str(tmp_path / "a.npz"), str(tmp_path / "b.npz"))
    assert done.returncode == 1, done.stderr
    assert "worst frame: frame/n/roundtrip max abs 8.882e-16 rel 2.220e-16" in done.stdout


def test_bitwise_sweep_compare_groups_the_read_backs(tmp_path):
    a = {"n/checkpoint-read/w": np.array([1.0, 2.0]), "data/burgers-s0/read-inputs": np.ones(2)}
    b = {"n/checkpoint-read/w": np.array([1.0, 2.0 + 2.0**-50]),
         "data/burgers-s0/read-inputs": np.array([1.0, 1.0 + 2.0**-52])}
    for name, arrays in (("a", a), ("b", b)):
        np.savez(tmp_path / f"{name}.npz", **arrays)
    done = run_script(ROOT / "scripts/bitwise_sweep.py", "--compare",
                      str(tmp_path / "a.npz"), str(tmp_path / "b.npz"))
    assert done.returncode == 1, done.stderr
    assert "worst checkpoint-read: n/checkpoint-read/w max abs 8.882e-16 rel 4.441e-16" in (
        done.stdout)
    assert "worst data: data/burgers-s0/read-inputs max abs 2.220e-16 rel 2.220e-16" in (
        done.stdout)


def test_bitwise_sweep_compare_groups_eval_with_the_forward_values(tmp_path):
    a = {"n/output": np.array([1.0, 2.0]), "n/eval": np.array([1.0, 2.0])}
    b = dict(a, **{"n/eval": np.array([1.0, 2.0 + 2.0**-50])})
    for name, arrays in (("a", a), ("b", b)):
        np.savez(tmp_path / f"{name}.npz", **arrays)
    done = run_script(ROOT / "scripts/bitwise_sweep.py", "--compare",
                      str(tmp_path / "a.npz"), str(tmp_path / "b.npz"))
    assert done.returncode == 1, done.stderr
    assert "worst forward: n/eval max abs 8.882e-16 rel 4.441e-16" in done.stdout


def test_criterion09_states_script_reads_every_state():
    done = run_script(ROOT / "scripts/criterion09_states.py", "--runs", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["fresh", "freed", "pinned"]
    for state in ("fresh", "freed", "pinned"):
        summary = next(line for line in lines if line.startswith(f"{state} (1 runs): slope "))
        assert "ratio" in summary and "band 0.75-1.25" in summary
