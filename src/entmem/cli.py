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
from .estimators import chsh_S, chsh_S_literal, tomo_counts, tomo_linear, tomo_mle
from .memory import transparency_window_fwhm
from .pipeline import (
    CHSH_LABELS,
    STAGES,
    chsh_e_matrix,
    eit_spectrum_csv,
    report_emit,
    report_json,
    run_experiment,
)
from .qstate import bell_psi_plus, fidelity, matrix_json
from .scenario import load_bundled_scenario, load_scenario, read_input, save_scenario


def _load(args) -> "Scenario":
    if args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        scenario = load_bundled_scenario()
    if args.seed is not None:
        from dataclasses import replace

        scenario = replace(scenario, master_seed=int(args.seed))
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
    for stage in stages:
        results[stage] = run_experiment(scenario, stage, sampling=args.sampling)
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
        targets.update(overrides)
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
    counts, acq = tomo_counts(records_from_csv(read_input(args.counts)))
    rho_lin = tomo_linear(counts, acq)
    rho_hat = tomo_mle(counts, acq, init=rho_lin)
    f = fidelity(rho_hat, bell_psi_plus())
    out = {
        "rho_linear": matrix_json(rho_lin),
        "rho_mle": rho_hat.to_json_dict(),
        "fidelity_to_ideal": f,
    }
    text = report_json(out)
    path = out_dir / "tomo_report.json"
    path.write_text(text)
    print(f"fidelity to ideal: {f:.4f}; wrote {path}")
    return 0


def _cmd_chsh(args) -> int:
    records = records_from_csv(read_input(args.counts))
    by_label = {r.setting_label: r.coincidences for r in records}
    missing = [label for label in CHSH_LABELS if label not in by_label]
    if missing:
        raise ValidationError(f"missing CHSH records {missing}")
    e = chsh_e_matrix([by_label[label] for label in CHSH_LABELS])
    s = chsh_S(e)
    print(f"E matrix: {e.tolist()}")
    print(f"S = {s:.6f} (literal formula: {chsh_S_literal(e):.6f})")
    return 0


def _cmd_eit(args) -> int:
    out = _out_dir(args)
    scenario = _load(args)
    path = out / "eit_spectrum.csv"
    path.write_text(eit_spectrum_csv(scenario.eit))
    if scenario.eit.rabi_coupling > 0:
        print(f"transparency window FWHM: {transparency_window_fwhm(scenario.eit):.3f} MHz")
    print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    try:
        data = json.loads(read_input(args.report))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{args.report} is not a JSON report: {exc}") from exc
    if not data or not isinstance(data, dict):
        raise ValidationError("empty report")
    round_trip = json.loads(json.dumps(data, sort_keys=True))
    if round_trip != data:
        raise ValidationError("report does not round-trip")
    stage = data.get("stage", "?")
    entries = {key: data.get(key) for key in ("fidelity", "chsh", "visibility")}
    for key, entry in entries.items():
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(k), (int, float)) for k in ("value", "sigma")
        ):
            raise ValidationError(f"report has no numeric {key} value and sigma")
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
    p.add_argument("--targets", help="JSON object overriding the default targets")
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
