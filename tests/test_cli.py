import json
from pathlib import Path

import pytest

import entmem.cli as cli
from entmem.cli import main
from entmem.detection import records_to_csv
from entmem.pipeline import run_experiment
from entmem.scenario import load_bundled_scenario, save_scenario, scenario_to_dict, scenario_from_dict


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


def test_calibrate_writes_resolved_scenario(tmp_path):
    rc = main(["--out", str(tmp_path), "calibrate"])
    assert rc == 0
    resolved = tmp_path / "scenario_calibrated.json"
    assert resolved.exists()
    scn = scenario_from_dict(json.loads(resolved.read_text()))
    assert scn.eit.rabi_coupling > 0
    report = json.loads((tmp_path / "calibration_report.json").read_text())
    assert report["eit_window"]["achieved"] == pytest.approx(20.0, rel=0.01)


def test_tomo_subcommand_on_counts_csv(fast_scenario_path, tmp_path):
    from dataclasses import replace

    scenario = load_bundled_scenario()
    scenario = replace(scenario, plan=replace(scenario.plan, error_bars=False))
    res = run_experiment(scenario, "pre_storage")
    csv_path = tmp_path / "tomo.csv"
    csv_path.write_text(records_to_csv(res.records["tomography"]))
    rc = main(["--out", str(tmp_path), "tomo", "--counts", str(csv_path)])
    assert rc == 0
    report = json.loads((tmp_path / "tomo_report.json").read_text())
    assert 0.8 <= report["fidelity_to_ideal"] <= 1.0


def test_chsh_subcommand_on_counts_csv(tmp_path, capsys):
    from dataclasses import replace

    scenario = load_bundled_scenario()
    scenario = replace(scenario, plan=replace(scenario.plan, error_bars=False))
    res = run_experiment(scenario, "pre_storage")
    csv_path = tmp_path / "chsh.csv"
    csv_path.write_text(records_to_csv(res.records["chsh"]))
    rc = main(["--out", str(tmp_path), "chsh", "--counts", str(csv_path)])
    assert rc == 0
    assert "S = " in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "text",
    [
        "not json {",
        "[]",
        json.dumps({"stage": "pre_storage"}),
        json.dumps({"fidelity": {"value": 0.9, "sigma": None}, "chsh": {}, "visibility": {}}),
    ],
)
def test_report_subcommand_rejects_bad_report(tmp_path, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", "--report", str(path)]) == 2


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    d = scenario_to_dict(load_bundled_scenario())
    d["timing"]["storage_time_ns"] = 5000.0
    bad.write_text(json.dumps(d))
    rc = main(["--scenario", str(bad), "--out", str(tmp_path), "simulate"])
    assert rc == 2


def test_huge_acquisition_time_exits_2(tmp_path, capsys):
    bad = tmp_path / "huge.json"
    d = scenario_to_dict(load_bundled_scenario())
    d["settings"]["acquisition_s"]["tomo_pre"] = 1e300
    bad.write_text(json.dumps(d))
    rc = main(["--scenario", str(bad), "--out", str(tmp_path), "simulate"])
    assert rc == 2
    assert "acquisition_s=1e+300" in capsys.readouterr().err


def test_calibration_error_exit_code(tmp_path):
    rc = main(
        ["--out", str(tmp_path), "calibrate", "--targets", '{"eta_100ns": 1.5}']
    )
    assert rc == 3


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


@pytest.mark.parametrize(
    "targets",
    ["{bad", "[1,2]", '{"V_pre": "x"}', '{"V_pre": NaN}', '{"V_pre": true}'],
)
def test_calibrate_rejects_bad_targets(tmp_path, targets):
    rc = main(["--out", str(tmp_path), "calibrate", "--targets", targets])
    assert rc == 2


CSV_HEADER = "setting_label,singles_1,singles_2,coincidences,triples,acquisition_s,seed"


def _csv_rows(labels):
    return [f"{label},100,100,10,0,1.0,0" for label in labels]


TOMO_LABELS = [a + b for a in "HVDR" for b in "HVDR"]
CHSH_LABELS = [f"chsh:{i}{j}:{p}" for i in "01" for j in "01" for p in ("pp", "pm", "mp", "mm")]


@pytest.mark.parametrize(
    "command, rows",
    [
        ("tomo", ["HH,100,100,10,0,nan,0"] + _csv_rows(TOMO_LABELS[1:])),
        ("tomo", ["HH,100,100,10,0,inf,0"] + _csv_rows(TOMO_LABELS[1:])),
        ("tomo", ["HH,100,100,ten,0,1.0,0"] + _csv_rows(TOMO_LABELS[1:])),
        ("chsh", _csv_rows(CHSH_LABELS) + ["chsh:00:pp,100,100,90,0,1.0,0"]),
    ],
    ids=["nan_acquisition", "inf_acquisition", "non_numeric", "duplicate_label"],
)
def test_count_csv_contract_violation_exits_2(tmp_path, command, rows):
    csv_path = tmp_path / "counts.csv"
    csv_path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    assert main(["--out", str(tmp_path), command, "--counts", str(csv_path)]) == 2


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
    from dataclasses import replace

    scenario = load_bundled_scenario()
    scenario = replace(scenario, plan=replace(scenario.plan, error_bars=False))
    res = run_experiment(scenario, "post_storage")
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
    ],
)
def test_unreachable_target_exits_3(tmp_path, capsys, targets, parameter):
    rc = main(["--out", str(tmp_path), "calibrate", "--targets", json.dumps(targets)])
    assert rc == 3
    err = capsys.readouterr().err
    assert parameter in err and "Traceback" not in err


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

    for name in ("calibrate", "run_experiment", "tomo_mle"):
        monkeypatch.setattr(cli, name, no_work)
    (tmp_path / "afile").write_text("kept")
    counts = tmp_path / "counts.csv"
    counts.write_text("\n".join([CSV_HEADER, *_csv_rows(TOMO_LABELS)]) + "\n")
    argv = [arg.format(counts=counts) for arg in argv]
    assert main(["--out", str(tmp_path / out), *argv]) == 2
    assert "--out" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "kept"
