"""Runs of the study scripts: smoke runs each in its own process, one in this one."""

import os
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import entmem.calibrate  # noqa: F401  (imported before a test patches experiment.stage_state)
import entmem.experiment as experiment
import entmem.pipeline as pipeline
from entmem.calibrate import calibrate
from entmem.errors import ValidationError
from entmem.scenario import load_bundled_scenario

ROOT = Path(__file__).resolve().parents[1]


def start_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"  # as pyproject's filterwarnings
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
    # eta and g2 are those of the post-storage Stage at each storage time
    scenario, _ = calibrate(load_bundled_scenario())
    for line in lines[1:]:
        t, eta, g2 = line.split(",")[:3]
        timing = replace(scenario.timing, storage_time_ns=float(t))
        post = experiment.stage_state(replace(scenario, timing=timing), "post_storage")
        assert (eta, g2) == (f"{post.eta:.6g}", f"{experiment.model_slot_g2(post):.6g}")


def test_storage_time_sweep_builds_only_the_stages_of_run_experiment(tmp_path, monkeypatch):
    built = []
    original = experiment.stage_state

    def counted(scenario, stage):
        built.append(stage)
        return original(scenario, stage)

    monkeypatch.setattr(experiment, "stage_state", counted)
    monkeypatch.setattr(pipeline, "stage_state", counted)
    out_csv = tmp_path / "sweep.csv"
    argv = ["storage_time_sweep.py", "--points", "2", "--out", str(out_csv)]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(ROOT / "scripts" / "storage_time_sweep.py"), run_name="__main__")
    # per point: run_experiment's own Stage and its pre-storage reference
    assert built == ["post_storage", "pre_storage"] * 2
    assert len(out_csv.read_text().splitlines()) == 1 + 2


def test_storage_time_sweep_fails_loudly_without_counts(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    proc = start_script("storage_time_sweep.py", "--points", "2", "--t-max", "500", "--out", str(out_csv))
    assert proc.returncode != 0
    assert "storage time 500.0 ns" in proc.stderr
    assert not out_csv.exists()


def test_seed_ensemble_script_rejects_runs_below_one():
    for runs in ("0", "-2"):
        proc = start_script("seed_ensemble.py", "--runs", runs)
        assert proc.returncode == 2
        assert "--runs must be at least 1" in proc.stderr and "Traceback" not in proc.stderr


def test_seed_ensemble_rejects_runs_below_one():
    scenario = load_bundled_scenario()
    for runs in (0, -2):
        with pytest.raises(ValidationError, match="at least 1 run"):
            pipeline.seed_ensemble(scenario, runs)


@pytest.mark.parametrize(
    "args, message",
    [
        (("--t-max", "-5"), "--t-max must be a storage time of at least 10 ns"),
        (("--t-max", "nan"), "--t-max must be a storage time of at least 10 ns"),
        (("--t-max", "1e30"), "--t-max 1e+30: storage_time must stay below the fiber delay"),
        (("--points", "0"), "--points must be at least 1"),
    ],
)
def test_storage_time_sweep_rejects_arguments_without_a_sweep(tmp_path, args, message):
    out_csv = tmp_path / "sweep.csv"
    proc = start_script("storage_time_sweep.py", *args, "--out", str(out_csv))
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert not out_csv.exists()
