"""Tests of the benchmark itself: metric names, span accounting, short runs.

Short runs go through ``run_workload`` in-process, so they skip the
fresh-process set-up probes; each runs at least op 0 (the reference op),
untraced and then traced, and fails on any check or on any difference
between the traced and untraced outputs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SETUPS = [{"import_s": 0.5, "load_s": 0.001, "calibrate_s": 0.07}]


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_layer_totals_self_busy_and_failed_resamples():
    spans = [
        ["estimators.mc_error", 0.0, 10.0, -1, 1, False, {"resamples": 200}],
        ["estimators.tomo_mle", 1.0, 4.0, 0, 1, True, {"starts": 4, "nfev": 30, "nit": 20}],
        ["rng.derive_rng", 1.5, 2.0, 1, 1, False, None],
        ["estimators.tomo_mle", 5.0, 6.0, 0, 1, False, {"starts": 1, "nfev": 5, "nit": 4}],
        ["experiment.memory_efficiency", 6.0, 9.0, 0, 1, False, None],
        ["experiment.memory_efficiency", 7.0, 8.0, 4, 1, False, None],
        ["estimators.tomo_mle", 20.0, 21.0, -1, None, False, None],  # outside every op
    ]
    totals = tracer.layer_totals(spans, {1})
    mle, mc = totals["estimators.tomo_mle"], totals["estimators.mc_error"]
    assert mle["calls"] == 2 and mle["failed"] == 1
    assert mle["busy_s"] == pytest.approx(4.0)
    assert mle["self_s"] == pytest.approx(3.5)
    assert (mle["starts"], mle["nfev"], mle["nit"]) == (5, 35, 24)
    assert mc["self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 3.0)
    assert mc["resamples"] == 200 and mc["failed_resamples"] == 1
    eff = totals["experiment.memory_efficiency"]
    assert eff["calls"] == 2 and eff["busy_s"] == pytest.approx(3.0)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_tracer_restores_every_original():
    import entmem.estimators
    import entmem.pipeline

    before = (entmem.pipeline.tomo_mle, entmem.estimators.minimize,
              entmem.estimators.TomographySettingSet.__dict__["standard"])
    with tracer.Tracer() as t:
        assert entmem.pipeline.tomo_mle is not before[0]
        entmem.estimators.TomographySettingSet.standard()
    assert [s[0] for s in t.spans] == ["estimators.TomographySettingSet.standard"]
    after = (entmem.pipeline.tomo_mle, entmem.estimators.minimize,
             entmem.estimators.TomographySettingSet.__dict__["standard"])
    assert after == before


@pytest.mark.parametrize("name, seconds", [
    ("report_error_bars", 0.0),
    ("seed_ensemble", 0.5),
    ("storage_sweep", 0.5),
])
def test_short_traced_run_is_correct_and_matches_untraced(name, seconds, tmp_path):
    result = run.run_workload(name, seed=7, seconds=seconds, trace=True, scratch=tmp_path)
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert len(result["traced_latencies_s"]) == result["attempted"]
    values = run.per_layer_metrics(result, SETUPS)
    assert set(values) == set(run.per_layer_units())
    if name == "report_error_bars":
        assert values["estimators.tomo_mle.calls"] == 603
        assert values["pipeline.report_emit.files"] == workloads.REPORT_FILES
        assert values["estimators.mc_error.resamples"] == 1200
        assert values["tracing.self_sum_pct"] == pytest.approx(100.0, abs=1.0)
    else:
        assert values["estimators.visibility_fit.resamples_discarded"] > 0
        assert values["estimators.mc_error.calls"] == 0
    e2e, extra = run.end_to_end_metrics(result, SETUPS)
    assert set(e2e) == set(run.END_TO_END) and all(v > 0 for v in e2e.values())
    assert extra["error_rate"] == 0.0


def test_reference_mismatch_is_reported():
    figures = {"F": 0.9, "sigma_F": 0.0201}
    assert workloads.check_reference(figures, {"F": 0.9, "sigma_F": 0.02}, 1e-4, "x")
    assert not workloads.check_reference(figures, {"F": 0.9, "sigma_F": 0.0201}, 1e-4, "x")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "seed_ensemble",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
