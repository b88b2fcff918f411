"""Command-line interface.

Subcommands: simulate, calibrate, tomo, chsh, eit, report.
Exit codes: 0 success, 2 validation error, 3 calibration error,
4 estimation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .calibrate import DEFAULT_TARGETS, calibrate
from .detection import records_from_csv
from .errors import EntmemError, ValidationError
from .estimators import chsh_counts, chsh_e_matrix, chsh_S, chsh_S_literal, tomo_estimate
from .memory import transparency_window_fwhm
from .pipeline import STAGES, eit_spectrum_csv, report_emit, report_json, run_experiment
from .qstate import matrix_json
from .scenario import check_value, load_bundled_scenario, load_scenario, read_input, save_scenario


def _load(args) -> "Scenario":
    if args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        scenario = load_bundled_scenario()
    if args.seed is not None:
        from dataclasses import replace

        seed = check_value(args.seed, int, "--seed")  # the master_seed rule of a scenario file
        scenario = replace(scenario, master_seed=seed)
    return scenario


def _out_dir(args) -> Path:
    """The --out directory, created if missing, before a command does any work."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"--out {args.out} cannot be used as a directory: {exc}") from exc
    return out


def _cmd_simulate(args) -> int:
    _out_dir(args)
    scenario = _load(args)
    calib_report = None
    if not args.skip_calibration:
        scenario, calib_report = calibrate(scenario)
    stages = list(STAGES) if args.stage == "both" else [args.stage]
    results = {}
    fits = {}  # the post stage's fidelity reference refits the pre stage's tomography counts
    for stage in stages:
        results[stage] = run_experiment(scenario, stage, sampling=args.sampling, fits=fits)
    files = report_emit(scenario, results, args.out, calibration_report=calib_report)
    for stage, result in results.items():
        print(
            f"{stage}: F={result.fidelity.value:.4f} S={result.chsh_S.value:.4f} "
            f"V={result.visibility.estimate.value:.4f} g2_peak={result.g2_peak:.2f} "
            f"alpha={result.alpha.value:.4f} R={result.cauchy_schwarz['R']:.1f}"
        )
    print(f"wrote {len(files)} files under {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    out = _out_dir(args)
    scenario = _load(args)
    targets = dict(DEFAULT_TARGETS)
    if args.targets:
        try:
            overrides = json.loads(args.targets)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--targets is not JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ValidationError("--targets must be a JSON object")
        bad_nulls = [k for k, v in overrides.items() if v is None and k not in DEFAULT_TARGETS]
        if bad_nulls:
            raise ValidationError(f"--targets: null drops a default target; {bad_nulls} are not")
        targets.update(overrides)
        targets = {name: value for name, value in targets.items() if value is not None}
    scenario, report = calibrate(scenario, targets)
    text = report_json(report)
    save_scenario(scenario, out / "scenario_calibrated.json")
    (out / "calibration_report.json").write_text(text)
    for name, entry in report.items():
        if name == "checks":
            continue
        flag = "  [FLAGGED]" if entry["flagged"] else ""
        print(
            f"{name}: target={entry['target']:.6g} achieved={entry['achieved']:.6g} "
            f"residual={entry['residual']:.2%}{flag}"
        )
    print(f"wrote {out / 'scenario_calibrated.json'}")
    return 0


def _cmd_tomo(args) -> int:
    out_dir = _out_dir(args)
    rho_lin, rho_hat, f = tomo_estimate(records_from_csv(read_input(args.counts)))
    out = {
        "rho_linear": matrix_json(rho_lin),
        "rho_mle": matrix_json(rho_hat),
        "fidelity_to_ideal": f,
    }
    text = report_json(out)
    path = out_dir / "tomo_report.json"
    path.write_text(text)
    print(f"fidelity to ideal: {f:.4f}; wrote {path}")
    return 0


def _cmd_chsh(args) -> int:
    e = chsh_e_matrix(chsh_counts(records_from_csv(read_input(args.counts))))
    s = chsh_S(e)
    print(f"E matrix: {e.tolist()}")
    print(f"S = {s:.6f} (literal formula: {chsh_S_literal(e):.6f})")
    return 0


def _cmd_eit(args) -> int:
    out = _out_dir(args)
    scenario = _load(args)
    path = out / "eit_spectrum.csv"
    path.write_text(eit_spectrum_csv(scenario.eit))
    window = transparency_window_fwhm(scenario.eit)
    if window > 0:  # a spectrum without a peak has no width to print
        print(f"transparency window FWHM: {window:.3f} MHz")
    print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    try:
        data = json.loads(read_input(args.report))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{args.report} is not a JSON report: {exc}") from exc
    if not data or not isinstance(data, dict):
        raise ValidationError("empty report")
    stage = data.get("stage", "?")
    entries = {key: data.get(key) for key in ("fidelity", "chsh", "visibility")}
    for key, entry in entries.items():
        for name in ("value", "sigma"):
            value = entry.get(name) if isinstance(entry, dict) else None
            check_value(value, float, f"report {key}.{name}")
    round_trip = json.loads(json.dumps(data, sort_keys=True))
    if round_trip != data:
        raise ValidationError("report does not round-trip")
    fid, chsh, vis = entries.values()
    print(f"stage: {stage}")
    print(f"fidelity ({fid.get('reference')}): {fid.get('value'):.4f} +- {fid.get('sigma'):.4f}")
    print(f"CHSH S: {chsh.get('value'):.4f} +- {chsh.get('sigma'):.4f}")
    print(f"visibility: {vis.get('value'):.4f} +- {vis.get('sigma'):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmem",
        description="Simulate and estimate a two-color entanglement storage experiment.",
    )
    parser.add_argument("--scenario", help="scenario JSON path (default: bundled baseline)")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", default="entmem_out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the experiment and emit reports")
    p.add_argument("--stage", choices=["pre_storage", "post_storage", "both"], default="both")
    p.add_argument("--sampling", choices=["poisson", "expected"], default="poisson")
    p.add_argument("--skip-calibration", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="fit free parameters to the anchor targets")
    p.add_argument("--targets", help="JSON object overriding the default targets; null drops one")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("tomo", help="reconstruct a density matrix from a counts CSV")
    p.add_argument("--counts", required=True, help="CountRecord CSV with the 16 settings")
    p.set_defaults(func=_cmd_tomo)

    p = sub.add_parser("chsh", help="compute S from a CHSH counts CSV")
    p.add_argument("--counts", required=True)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("eit", help="emit the EIT transmission spectrum")
    p.set_defaults(func=_cmd_eit)

    p = sub.add_parser("report", help="validate and summarize a report JSON")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EntmemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
