"""Smoke runs of the study scripts, each as its own process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def start_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def run_script(name: str, *args: str) -> str:
    proc = start_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_seed_ensemble_script():
    out = run_script("seed_ensemble.py", "--runs", "2")
    rows = out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["F_pre", "F_post", "S_pre", "S_post", "V_pre", "V_post"]


def test_storage_time_sweep_script(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    run_script("storage_time_sweep.py", "--points", "2", "--out", str(out_csv))
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t_ns,eta,g2_slot,F_post,S_post,V_post"
    assert lines[1].split(",")[0] == "10.0"
    assert len(lines) == 1 + 2


def test_storage_time_sweep_fails_loudly_without_counts(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    proc = start_script("storage_time_sweep.py", "--points", "2", "--t-max", "500", "--out", str(out_csv))
    assert proc.returncode != 0
    assert "storage time 500.0 ns" in proc.stderr
    assert not out_csv.exists()
