import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import entmem.calibrate
import entmem.cli as cli
import entmem.estimators as estimators
import entmem.pipeline as pipeline
from entmem.cli import main
from entmem.calibrate import calibrate
from entmem.detection import records_from_csv, records_to_csv
from entmem.memory import TAU_MEM_MAX_NS
from entmem.pipeline import STAGES, run_experiment
from entmem.scenario import (
    load_bundled_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


@pytest.fixture(scope="module")
def fast_scenario_path(tmp_path_factory):
    d = scenario_to_dict(load_bundled_scenario())
    d["settings"]["error_bars"] = False
    path = tmp_path_factory.mktemp("scn") / "fast.json"
    path.write_text(json.dumps(d))
    return path


def test_simulate_writes_reports(fast_scenario_path, tmp_path, capsys):
    rc = main(
        [
            "--scenario", str(fast_scenario_path),
            "--out", str(tmp_path),
            "simulate", "--skip-calibration",
        ]
    )
    assert rc == 0
    assert (tmp_path / "report_pre.json").exists()
    assert (tmp_path / "report_post.json").exists()
    out = capsys.readouterr().out
    assert "pre_storage:" in out and "post_storage:" in out


def test_simulate_single_stage(fast_scenario_path, tmp_path):
    rc = main(
        [
            "--scenario", str(fast_scenario_path),
            "--out", str(tmp_path),
            "simulate", "--stage", "pre_storage", "--skip-calibration",
        ]
    )
    assert rc == 0
    assert (tmp_path / "report_pre.json").exists()
    assert not (tmp_path / "report_post.json").exists()


def counted_simulate(out: Path, *argv: str) -> dict[str, int]:
    """Run a bundled `entmem simulate` with error bars; count tomo_mle calls and rows fitted."""
    counts = {"tomo_mle": 0, "newton_fits": 0}

    def counted(name, fn, rows=lambda *args: 1):
        def wrapper(*args, **kwargs):
            counts[name] += rows(*args)
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        tomo_mle = counted("tomo_mle", estimators.tomo_mle)
        for module in (pipeline, estimators):  # the read-back loop, and tomo_estimate's fits
            mp.setattr(module, "tomo_mle", tomo_mle)
        newton_fits = counted("newton_fits", estimators._newton_fits, lambda t, *_: len(t))
        mp.setattr(estimators, "_newton_fits", newton_fits)
        assert main(["--out", str(out), "simulate", *argv]) == 0
    return counts


@pytest.fixture(scope="module")
def bundled_simulate(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundled")
    return out, counted_simulate(out)


def test_simulate_fits_each_distinct_tomography_input_once(bundled_simulate):
    # The post stage's reference point fit and its 200 reference resamples
    # repeat the pre stage's fits and are served from the shared fits.
    _, counts = bundled_simulate
    assert counts == {"tomo_mle": 603, "newton_fits": 402}


def test_post_stage_alone_writes_the_same_report(bundled_simulate, tmp_path):
    both, _ = bundled_simulate
    counts = counted_simulate(tmp_path, "--stage", "post_storage")
    assert counts == {"tomo_mle": 402, "newton_fits": 402}
    assert (tmp_path / "report_post.json").read_bytes() == (both / "report_post.json").read_bytes()


def test_calibrate_writes_resolved_scenario(tmp_path):
    rc = main(["--out", str(tmp_path), "calibrate"])
    assert rc == 0
    resolved = tmp_path / "scenario_calibrated.json"
    assert resolved.exists()
    scn = scenario_from_dict(json.loads(resolved.read_text()))
    assert scn.eit.rabi_coupling > 0
    report = json.loads((tmp_path / "calibration_report.json").read_text())
    assert report["eit_window"]["achieved"] == pytest.approx(20.0, rel=0.01)


def _stage_run(stage, sampling):
    """A bundled stage run without error bars, and its scenario."""
    scenario = load_bundled_scenario()
    scenario = replace(scenario, plan=replace(scenario.plan, error_bars=False))
    return scenario, run_experiment(scenario, stage, sampling)


# the pre-storage Poisson case is the plain-named test; the others are parametrized after it
_OTHER_STAGE_SAMPLINGS = [
    (stage, sampling)
    for stage in STAGES
    for sampling in ("poisson", "expected")
    if (stage, sampling) != ("pre_storage", "poisson")
]


def test_tomo_subcommand_on_counts_csv(tmp_path):
    _check_tomo_subcommand(tmp_path, "pre_storage", "poisson")


@pytest.mark.parametrize("stage, sampling", _OTHER_STAGE_SAMPLINGS)
def test_tomo_subcommand_on_counts_csv_for_each_stage_and_sampling(tmp_path, stage, sampling):
    _check_tomo_subcommand(tmp_path, stage, sampling)


def _check_tomo_subcommand(tmp_path, stage, sampling):
    scenario, res = _stage_run(stage, sampling)
    csv_path = tmp_path / "tomo.csv"
    csv_path.write_text(records_to_csv(res.records["tomography"]))
    rc = main(["--out", str(tmp_path), "tomo", "--counts", str(csv_path)])
    assert rc == 0
    report = json.loads((tmp_path / "tomo_report.json").read_text())
    # one estimate and one serializer: the simulate report's figures, read back from the CSV
    stage_report = pipeline.stage_report(scenario, res)
    assert report["rho_mle"] == stage_report["tomography"]["rho_mle"]
    assert report["rho_linear"] == stage_report["tomography"]["rho_linear"]
    if stage == "pre_storage":  # the post stage's F is to the pre-storage MLE, not the ideal
        assert report["fidelity_to_ideal"] == stage_report["fidelity"]["value"]
    assert 0.8 <= report["fidelity_to_ideal"] <= 1.0


def test_chsh_subcommand_on_counts_csv(tmp_path, capsys):
    _check_chsh_subcommand(tmp_path, capsys, "pre_storage", "poisson")


@pytest.mark.parametrize("stage, sampling", _OTHER_STAGE_SAMPLINGS)
def test_chsh_subcommand_on_counts_csv_for_each_stage_and_sampling(
    tmp_path, capsys, stage, sampling
):
    _check_chsh_subcommand(tmp_path, capsys, stage, sampling)


def _check_chsh_subcommand(tmp_path, capsys, stage, sampling):
    _, res = _stage_run(stage, sampling)
    csv_path = tmp_path / "chsh.csv"
    csv_path.write_text(records_to_csv(res.records["chsh"]))
    rc = main(["--out", str(tmp_path), "chsh", "--counts", str(csv_path)])
    assert rc == 0
    # the CLI reads the records by the label layout the pipeline wrote them in
    out = capsys.readouterr().out
    assert f"E matrix: {res.chsh_E.tolist()}\n" in out
    assert f"S = {res.chsh_S.value:.6f} " in out


@pytest.mark.parametrize(
    "seed, sampling",
    [(None, "poisson"), (0, "poisson"), (1, "poisson"), (2, "poisson"), (3, "poisson"),
     (None, "expected")],
)
def test_reports_recompute_from_the_written_count_csvs(tmp_path, seed, sampling):
    # estimation is a function of the records: the count CSVs simulate wrote, read back and
    # estimated with the run's g2 histograms, give both reports byte for byte
    seed_argv = [] if seed is None else ["--seed", str(seed)]
    assert main([*seed_argv, "--out", str(tmp_path), "simulate", "--sampling", sampling]) == 0
    scenario = load_bundled_scenario()
    if seed is not None:
        scenario = replace(scenario, master_seed=seed)
    scenario, calibration_report = calibrate(scenario)
    error_bars = scenario.plan.error_bars and sampling == "poisson"

    def read(sfx, group):
        return records_from_csv((tmp_path / f"counts_{sfx}_{group}.csv").read_text())

    for stage in STAGES:
        view, drawn, g2_hist = pipeline.draw_stage(scenario, stage, sampling)
        records = {group: read(view.suffix, group) for group in drawn}
        reference = read("pre", "tomography") if stage == "post_storage" else None
        result = pipeline.estimate_stage(view, records, g2_hist, reference, error_bars)
        text = pipeline.report_json(pipeline.stage_report(scenario, result, calibration_report))
        assert text == (tmp_path / f"report_{view.suffix}.json").read_text()


def test_a_draw_error_is_reported_before_an_estimate_error(tmp_path, capsys):
    # tomography counts with an empty normalization group fail their estimate (exit 4), but a
    # stage makes every draw before it estimates, so the g2 acquisition's range error comes first
    d = scenario_to_dict(load_bundled_scenario())
    d["settings"]["acquisition_s"].update(tomo_pre=1e-6, g2=1e303)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    argv = ["--scenario", str(path), "--out", str(tmp_path), "simulate", "--skip-calibration"]
    assert main([*argv, "--stage", "pre_storage"]) == 2
    assert "settings.acquisition_s.g2" in capsys.readouterr().err
    d["settings"]["acquisition_s"]["g2"] = 1.0
    path.write_text(json.dumps(d))
    assert main([*argv, "--stage", "pre_storage"]) == 4


def test_eit_subcommand(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "eit"])
    assert rc == 0
    text = (tmp_path / "eit_spectrum.csv").read_text()
    assert text.startswith("detuning_mhz,transmission")
    assert "transparency window FWHM" in capsys.readouterr().out


def test_report_subcommand_round_trip(fast_scenario_path, tmp_path, capsys):
    main(
        [
            "--scenario", str(fast_scenario_path),
            "--out", str(tmp_path),
            "simulate", "--stage", "pre_storage", "--skip-calibration",
        ]
    )
    rc = main(["report", "--report", str(tmp_path / "report_pre.json")])
    assert rc == 0
    assert "CHSH S" in capsys.readouterr().out


def _report_text(bad: dict) -> str:
    """A report whose fidelity, chsh and visibility entries are valid except for those in bad."""
    valid = {key: {"value": 0.9, "sigma": 0.01} for key in ("fidelity", "chsh", "visibility")}
    return json.dumps(valid | bad)


@pytest.mark.parametrize(
    "text",
    [
        "not json {",
        "[]",
        json.dumps({"stage": "pre_storage"}),
        json.dumps({"fidelity": {"value": 0.9, "sigma": None}, "chsh": {}, "visibility": {}}),
        *(
            pytest.param(_report_text(bad), id=name)
            for name, bad in (
                ("infinite_value", {"chsh": {"value": float("inf"), "sigma": 0.0}}),
                ("nan_value", {"chsh": {"value": float("nan"), "sigma": 0.0}}),
                ("bool_sigma", {"visibility": {"value": 0.9, "sigma": True}}),
                ("int_beyond_float", {"fidelity": {"value": 10**400, "sigma": 0.0}}),
            )
        ),
    ],
)
def test_report_subcommand_rejects_bad_report(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", "--report", str(path)]) == 2
    assert "round-trip" not in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    d = scenario_to_dict(load_bundled_scenario())
    d["timing"]["storage_time_ns"] = 5000.0
    bad.write_text(json.dumps(d))
    rc = main(["--scenario", str(bad), "--out", str(tmp_path), "simulate"])
    assert rc == 2


@pytest.mark.parametrize("command", [["simulate", "--skip-calibration"], ["calibrate"]])
def test_sweep_that_cannot_resolve_the_fringe_exits_2(tmp_path, capsys, command):
    """Seven sweep angles at 0 and one at pi/2: a design of rank 1, not a visibility of 1."""
    bad = tmp_path / "degenerate.json"
    d = scenario_to_dict(load_bundled_scenario())
    d["settings"]["visibility_thetas"] = [0.0] * 7 + [1.5707963267948966]
    bad.write_text(json.dumps(d))
    rc = main(["--scenario", str(bad), "--out", str(tmp_path), *command])
    assert rc == 2
    assert "rank 1 < 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, sampling",
    [
        ("tomo_pre", 1e300, "poisson"),
        ("tomo_pre", 1e300, "expected"),
        # finite means past numpy's Poisson limit
        ("alpha_pre", 1e18, "poisson"),
        ("alpha_pre", 1e18, "expected"),
        # past the pairs a g2 histogram simulates, and past numpy's Poisson limit
        ("g2", 1e30, "poisson"),
        ("g2", 1e30, "expected"),
        # shorter than one pump period: no slot to histogram
        ("g2", 1e-9, "expected"),
        # so many pump periods that their count is inf as a float
        ("g2", 1e303, "poisson"),
        ("g2", 1e303, "expected"),
        # a record's rate times its acquisition time is inf as a float
        ("tomo_pre", 1e308, "poisson"),
        ("tomo_pre", 1e308, "expected"),
        ("tomo_post", 1e308, "expected"),
        ("chsh_pre", 1e308, "poisson"),
        ("chsh_post", 1e308, "expected"),
        ("vis_pre", 1e308, "expected"),
        ("vis_post", 1e308, "poisson"),
    ],
)
def test_huge_acquisition_time_exits_2(tmp_path, capsys, key, value, sampling):
    bad = tmp_path / "huge.json"
    d = scenario_to_dict(load_bundled_scenario())
    d["settings"]["acquisition_s"][key] = value
    bad.write_text(json.dumps(d))
    rc = main(["--scenario", str(bad), "--out", str(tmp_path), "simulate", "--sampling", sampling])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"acquisition_s={value:g}" in err
    if key == "g2":
        assert "settings.acquisition_s.g2" in err


@pytest.mark.parametrize(
    "field, value, stage, codes",
    [
        # 5000 dark clicks per pump slot
        ("detectors.d1.dark_rate", 1e10, "both", {2}),
        ("correlations.g2_channel_background", 5.0, "both", {2}),
        # 500 noise clicks per coincidence gate
        ("mem_noise.background_flux", 1e3, "both", {2}),
        # 0.995 dark clicks per pump slot: unusual, but a probability
        ("detectors.d1.dark_rate", 1.99e6, "both", {0}),
        # (t/tau_mem)**2 is past the float range: the memory keeps nothing
        ("decay.tau_mem", 1e-160, "pre_storage", {0}),
        ("decay.tau_mem", 1e-160, "post_storage", {4}),
        # t / tau_mem itself is past the float range
        ("decay.tau_mem", 1e-310, "post_storage", {4}),
        # a pre-storage run reads no post-storage input
        ("mem_noise.background_flux", 1e3, "pre_storage", {0}),
        ("correlations.g2_channel_background", 5.0, "pre_storage", {0}),
        # retrieval noise is bunched or Poissonian, never antibunched
        ("correlations.g2_autocorr_s2_post", 0.5, "both", {2}),
        ("correlations.g2_autocorr_s2_post", 0.5, "pre_storage", {0}),
        ("timing.storage_time_ns", -5.0, "pre_storage", {2}),
        # duty windows that overfill a second: the pulse rate is inf as a float
        ("timing.rep_rate", 1e308, "pre_storage", {2}),
    ],
)
def test_unphysical_scenario_values_exit_cleanly(tmp_path, capsys, field, value, stage, codes):
    d = scenario_to_dict(load_bundled_scenario())
    *parents, key = field.split(".")
    node = d
    for name in parents:
        node = node[name]
    node[key] = value
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(d))
    argv = ["--scenario", str(path), "--out", str(tmp_path / "out"), "simulate"]
    rc = main(argv + ["--sampling", "expected", "--skip-calibration", "--stage", stage])
    assert rc in codes
    err = capsys.readouterr().err
    if codes == {2}:
        assert field in err
    if codes == {4}:
        assert "retrieval efficiency 0 at storage time" in err and field in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "--skip-calibration", "--sampling", "poisson"], 2),
        (["simulate", "--skip-calibration", "--sampling", "expected"], 2),
        (["calibrate", "--targets", '{"eit_window": null}'], 2),
        # the window fit comes first: on 3 points no coupling in its bracket shows a window
        (["calibrate"], 3),
    ],
)
def test_probe_grid_that_overcounts_the_line_exits_cleanly(tmp_path, capsys, argv, code):
    """Three points over +-1e6 MHz give the 150 MHz line a trapezoid mass of 320."""
    d = scenario_to_dict(load_bundled_scenario())
    d["eit"]["probe_grid_mhz"] = [-1e6, 1e6, 3]
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(d))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out"), *argv]) == code
    err = capsys.readouterr().err
    assert ("eit.probe_grid_mhz" in err) == (code == 2)


@pytest.mark.parametrize("sampling", ["poisson", "expected"])
def test_coupling_without_absorption_reports_no_window(tmp_path, capsys, sampling):
    """At 1e5 MHz the whole probe grid is transparent: a memory without a window peak."""
    d = scenario_to_dict(load_bundled_scenario())
    d["eit"]["rabi_coupling"] = 1e5
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "out"
    argv = ["--scenario", str(path), "--out", str(out), "simulate", "--skip-calibration"]
    assert main(argv + ["--sampling", sampling]) == 0
    for stage in ("pre", "post"):
        report = json.loads((out / f"report_{stage}.json").read_text())
        assert report["memory"]["window_fwhm_mhz"] is None
    capsys.readouterr()
    assert main(["--scenario", str(path), "--out", str(out), "eit"]) == 0
    assert "transparency window" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "tau_mem, stage, n_files",
    [(1e-160, "pre_storage", 15), (169.85, "both", 28), (TAU_MEM_MAX_NS, "both", 28)],
)
def test_written_files_hold_only_finite_numbers(tmp_path, tau_mem, stage, n_files):
    """The efficiency curve spans 3 tau_mem: finite up to the largest tau_mem a scenario takes."""
    d = scenario_to_dict(load_bundled_scenario())
    d["decay"]["tau_mem"] = tau_mem
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "out"
    argv = ["--scenario", str(path), "--out", str(out), "simulate", "--skip-calibration"]
    assert main(argv + ["--sampling", "expected", "--stage", stage]) == 0
    written = sorted(out.rglob("*.*"))
    assert len(written) == n_files
    for f in written:
        assert not re.search(r"nan|inf", f.read_text(), re.IGNORECASE), f


def test_calibration_error_exit_code(tmp_path):
    rc = main(
        ["--out", str(tmp_path), "calibrate", "--targets", '{"eta_100ns": 1.5}']
    )
    assert rc == 3


def test_root_search_that_does_not_converge_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(entmem.calibrate, "_MAXITER", 1)
    assert main(["--out", str(tmp_path), "calibrate"]) == 3
    assert "did not converge in 1 iterations" in capsys.readouterr().err


def test_cli_runs_without_scipy(tmp_path):
    # a fresh process: this one has imported scipy for the reference solvers
    code = f"""
import sys
import entmem
import entmem.cli as cli
assert cli.main(["--out", {str(tmp_path)!r}, "simulate", "--sampling", "expected"]) == 0
assert cli.main(["--out", {str(tmp_path)!r}, "calibrate"]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report_post.json").exists()
    assert (tmp_path / "calibration_report.json").exists()


def test_estimation_error_exit_code(tmp_path):
    csv_path = tmp_path / "zero.csv"
    header = "setting_label,singles_1,singles_2,coincidences,triples,acquisition_s,seed"
    rows = [header]
    for a in "HVDR":
        for b in "HVDR":
            rows.append(f"{a}{b},10,10,0,0,1.0,0")
    csv_path.write_text("\n".join(rows) + "\n")
    rc = main(["--out", str(tmp_path), "tomo", "--counts", str(csv_path)])
    assert rc == 4


def test_seed_override_changes_counts(fast_scenario_path, tmp_path):
    for seed, sub in ((1, "a"), (2, "b")):
        main(
            [
                "--scenario", str(fast_scenario_path),
                "--seed", str(seed),
                "--out", str(tmp_path / sub),
                "simulate", "--stage", "pre_storage", "--skip-calibration",
            ]
        )
    a = (tmp_path / "a" / "counts_pre_tomography.csv").read_text()
    b = (tmp_path / "b" / "counts_pre_tomography.csv").read_text()
    assert a != b


@pytest.mark.parametrize("seed", [2**64, 2**63, -(2**63) - 1])
@pytest.mark.parametrize("command", ["simulate", "calibrate", "eit"])
def test_seed_beyond_64_bits_exits_2_before_any_work(tmp_path, capsys, monkeypatch, seed, command):
    # seed derivation masks a seed to 64 bits: 2**64 would run with seed 0's figures
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --seed was checked")

    for name in ("calibrate", "run_experiment", "eit_spectrum_csv"):
        monkeypatch.setattr(cli, name, no_work)
    assert main(["--seed", str(seed), "--out", str(tmp_path), command]) == 2
    assert "--seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
def test_calibrated_scenario_at_a_64_bit_seed_loads_back(tmp_path, seed):
    assert main(["--seed", str(seed), "--out", str(tmp_path), "calibrate"]) == 0
    assert load_scenario(tmp_path / "scenario_calibrated.json").master_seed == seed


@pytest.mark.parametrize(
    "targets",
    [
        "{bad",
        "[1,2]",
        '{"V_pre": "x"}',
        '{"V_pre": NaN}',
        '{"V_pre": true}',
        pytest.param('{"V_pre": %d}' % 10**400, id='{"V_pre": 10**400}'),
        '{"F_pre": null}',
        '{"bogus": null}',
    ],
)
def test_calibrate_rejects_bad_targets(tmp_path, capsys, targets):
    rc = main(["--out", str(tmp_path), "calibrate", "--targets", targets])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(name in err for name in ("V_pre", "F_pre", "bogus") if name in targets)


CSV_HEADER = "setting_label,singles_1,singles_2,coincidences,triples,acquisition_s,seed"


def _csv_rows(labels):
    return [f"{label},100,100,10,0,1.0,0" for label in labels]


TOMO_LABELS = [a + b for a in "HVDR" for b in "HVDR"]
CHSH_LABELS = [f"chsh:{i}{j}:{p}" for i in "01" for j in "01" for p in ("pp", "pm", "mp", "mm")]


@pytest.mark.parametrize(
    "command, rows, field",
    [
        ("tomo", ["HH,100,100,10,0,nan,0"] + _csv_rows(TOMO_LABELS[1:]), None),
        ("tomo", ["HH,100,100,10,0,inf,0"] + _csv_rows(TOMO_LABELS[1:]), None),
        ("tomo", ["HH,100,100,ten,0,1.0,0"] + _csv_rows(TOMO_LABELS[1:]), None),
        ("chsh", _csv_rows(CHSH_LABELS) + ["chsh:00:pp,100,100,90,0,1.0,0"], None),
        # float(10**400) overflows, and 100 / 1e-320 is beyond the float range
        ("tomo", [f"HH,{10**400},100,10,0,1.0,0"] + _csv_rows(TOMO_LABELS[1:]), "singles_1"),
        ("tomo", ["HH,100,100,10,0,1e-320,0"] + _csv_rows(TOMO_LABELS[1:]), "acquisition_s"),
        # 100x the counts at 100x the time: the same rates, yet a raw-count E would move
        ("chsh", [f"{CHSH_LABELS[0]},10000,10000,1000,0,100.0,0"] + _csv_rows(CHSH_LABELS[1:]),
         "acquisition_s"),
    ],
    ids=[
        "nan_acquisition",
        "inf_acquisition",
        "non_numeric",
        "duplicate_label",
        "count_above_int64",
        "subnormal_acquisition",
        "unequal_acquisition",
    ],
)
def test_count_csv_contract_violation_exits_2(tmp_path, capsys, command, rows, field):
    csv_path = tmp_path / "counts.csv"
    csv_path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    assert main(["--out", str(tmp_path), command, "--counts", str(csv_path)]) == 2
    assert field is None or field in capsys.readouterr().err


def _missing(tmp_path):
    return str(tmp_path / "missing.csv")


def _non_utf8_counts(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(("\n".join([CSV_HEADER, *_csv_rows(TOMO_LABELS)]) + "\n").encode() + b"\xe9\n")
    return str(path)


@pytest.mark.parametrize(
    "make_path, argv",
    [
        (_missing, ["tomo", "--counts", "{}"]),
        (_missing, ["chsh", "--counts", "{}"]),
        (_missing, ["report", "--report", "{}"]),
        (_missing, ["--scenario", "{}", "eit"]),
        (_non_utf8_counts, ["tomo", "--counts", "{}"]),
    ],
    ids=["missing_tomo_counts", "missing_chsh_counts", "missing_report", "missing_scenario",
         "non_utf8_counts"],
)
def test_unreadable_input_file_exits_2(tmp_path, capsys, make_path, argv):
    path = make_path(tmp_path)
    argv = [arg.format(path) for arg in argv]
    assert main(["--out", str(tmp_path / "out"), *argv]) == 2
    assert path in capsys.readouterr().err


def test_quoted_crlf_counts_give_identical_tomo_report(tmp_path):
    _, res = _stage_run("post_storage", "poisson")
    plain = records_to_csv(res.records["tomography"])
    header, *rows = plain.splitlines()
    quoted = "\r\n".join([header, *('"{}",{}'.format(*row.split(",", 1)) for row in rows)])
    reports = []
    for name, text in (("plain", plain), ("quoted", quoted + "\r\n")):
        csv_path = tmp_path / f"{name}.csv"
        csv_path.write_bytes(text.encode())
        assert main(["--out", str(tmp_path / name), "tomo", "--counts", str(csv_path)]) == 0
        reports.append((tmp_path / name / "tomo_report.json").read_bytes())
    assert b'"HH"' in (tmp_path / "quoted.csv").read_bytes()
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "targets, parameter",
    [
        ({"g2_post": 0.5}, "g2_channel_background"),
        ({"g2_post": -3}, "g2_channel_background"),
        ({"g2_pre": 0.5}, "pair_prob"),
        ({"eit_window": 1000}, "rabi_coupling"),
        ({"alpha_post": 5}, "background_flux"),
        ({"eta_100ns": 5e-324}, "tau_mem"),
        # a window narrower than the probe grid resolves, with or without the memory's targets
        ({"eit_window": 0.25}, "eit_window target 0.25 fits rabi_coupling = 3.41899: "),
        ({"eit_window": 0.25, **dict.fromkeys(["eta_100ns", "V_post", "alpha_post", "g2_post"])},
         "eit.probe_grid_mhz"),
    ],
)
def test_unreachable_target_exits_3(tmp_path, capsys, targets, parameter):
    rc = main(["--out", str(tmp_path), "calibrate", "--targets", json.dumps(targets)])
    assert rc == 3
    err = capsys.readouterr().err
    assert parameter in err and "Traceback" not in err


def test_unresolved_window_in_the_scenario_exits_2(tmp_path, capsys):
    # the coupling an eit_window target of 0.25 fits, which calibrate cannot reach (exit 3):
    # in a scenario file it is bad input
    d = scenario_to_dict(load_bundled_scenario())
    d["eit"]["rabi_coupling"] = 3.41899
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(d))
    argv = ["--scenario", str(path), "--out", str(tmp_path), "simulate", "--skip-calibration"]
    assert main(argv) == 2
    assert "eit.probe_grid_mhz (-60.0, 60.0, 2401) is too coarse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "checked, value, fitted, check",
    [("F_pre", 0.881, "V_pre", "F_pre_to_ideal"), ("F_post", 0.9, "V_post", "F_post_to_pre")],
)
def test_second_target_of_a_parameter_is_check_only(tmp_path, checked, value, fitted, check):
    rc = main(["--out", str(tmp_path), "calibrate", "--targets", json.dumps({checked: value})])
    assert rc == 0
    report = json.loads((tmp_path / "calibration_report.json").read_text())
    assert report[checked]["check_only"] is True
    assert report[checked]["parameter"] == {}
    assert report[checked]["target"] == value
    assert report[checked]["achieved"] == report["checks"][check]
    assert "check_only" not in report[fitted]
    assert report[fitted]["residual"] < 1e-6


def test_null_target_lets_the_second_of_a_pair_be_fitted(tmp_path):
    targets = {"V_pre": None, "F_pre": 0.881}
    rc = main(["--out", str(tmp_path), "calibrate", "--targets", json.dumps(targets)])
    assert rc == 0
    report = json.loads((tmp_path / "calibration_report.json").read_text())
    assert "V_pre" not in report
    assert "check_only" not in report["F_pre"]
    assert list(report["F_pre"]["parameter"]) == ["p_white"]
    assert report["F_pre"]["residual"] < 1e-6
    assert report["checks"]["F_pre_to_ideal"] == report["F_pre"]["achieved"]
    assert {"eit_window", "V_post", "g2_pre", "g2_post"} <= set(report)


def test_null_target_leaves_its_parameter_as_loaded(tmp_path):
    d = scenario_to_dict(load_bundled_scenario())
    d["correlations"]["g2_channel_background"] = 0.0123
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    argv = ["--scenario", str(path), "--out", str(tmp_path), "calibrate", "--targets"]
    assert main([*argv, '{"g2_post": null}']) == 0
    report = json.loads((tmp_path / "calibration_report.json").read_text())
    assert "g2_post" not in report and "alpha_post" in report
    written = load_scenario(tmp_path / "scenario_calibrated.json")
    assert written.correlations.g2_channel_background == 0.0123
    # without the null, g2_post refits it
    assert main([*argv, "{}"]) == 0
    refit = load_scenario(tmp_path / "scenario_calibrated.json")
    assert refit.correlations.g2_channel_background != 0.0123


@pytest.mark.parametrize(
    "out, argv",
    [
        ("afile", ["eit"]),
        ("afile/sub", ["calibrate"]),
        ("afile", ["simulate", "--sampling", "expected"]),
        ("afile/sub", ["tomo", "--counts", "{counts}"]),
    ],
    ids=["eit_file", "calibrate_under_file", "simulate_file", "tomo_under_file"],
)
def test_out_that_is_or_lies_under_a_file_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, out, argv
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("calibrate", "run_experiment", "tomo_estimate"):
        monkeypatch.setattr(cli, name, no_work)
    (tmp_path / "afile").write_text("kept")
    counts = tmp_path / "counts.csv"
    counts.write_text("\n".join([CSV_HEADER, *_csv_rows(TOMO_LABELS)]) + "\n")
    argv = [arg.format(counts=counts) for arg in argv]
    assert main(["--out", str(tmp_path / out), *argv]) == 2
    assert "--out" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "kept"
