#!/usr/bin/env python3
"""Sweep the storage time: efficiency, cross-correlation and fidelity decay.

Writes a CSV with one row per storage time and prints a compact table.
Post-storage estimates use expected-value sampling so the curves are
smooth; switch --sampling poisson to see realistic scatter.  A storage
time with too few counts to estimate from ends the run with exit code 1
and no CSV; the default --t-max 400 stays below that point (past about
450 ns on the bundled scenario).  The sweep runs from 10 ns to --t-max;
arguments that give no storage time, or one the scenario rejects, exit
with code 2 before any run.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from entmem.calibrate import calibrate
from entmem.errors import EstimationError, ValidationError
from entmem.experiment import model_slot_g2
from entmem.pipeline import run_experiment
from entmem.scenario import load_bundled_scenario


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="storage_sweep.csv")
    ap.add_argument("--t-max", type=float, default=400.0)
    ap.add_argument("--points", type=int, default=11)
    ap.add_argument("--sampling", choices=["expected", "poisson"], default="expected")
    args = ap.parse_args()
    if args.points < 1:
        ap.error("--points must be at least 1")
    if not 10.0 <= args.t_max < np.inf:
        ap.error("--t-max must be a storage time of at least 10 ns, where the sweep starts")

    scenario, _ = calibrate(load_bundled_scenario())
    scenario = replace(scenario, plan=replace(scenario.plan, error_bars=False))
    try:
        scenarios = [
            replace(scenario, timing=replace(scenario.timing, storage_time_ns=float(t)))
            for t in np.linspace(10.0, args.t_max, args.points)
        ]
    except ValidationError as exc:
        ap.error(f"--t-max {args.t_max:g}: {exc}")

    rows = ["t_ns,eta,g2_slot,F_post,S_post,V_post"]
    print(f"{'t_ns':>7} {'eta':>8} {'g2':>7} {'F':>7} {'S':>7} {'V':>7}")
    fits = {}  # every storage time shares the pre-storage reference fit
    for scn in scenarios:
        t = scn.timing.storage_time_ns
        try:
            res = run_experiment(scn, "post_storage", sampling=args.sampling, fits=fits)
        except EstimationError as exc:
            sys.exit(f"error: no estimate at storage time {t:.1f} ns: {exc}")
        eta, g2 = res.view.eta, model_slot_g2(res.view)
        rows.append(
            f"{t:.1f},{eta:.6g},{g2:.6g},{res.fidelity.value:.6g},"
            f"{res.chsh_S.value:.6g},{res.visibility.estimate.value:.6g}"
        )
        print(
            f"{t:7.1f} {eta:8.4f} {g2:7.2f} {res.fidelity.value:7.4f} "
            f"{res.chsh_S.value:7.4f} {res.visibility.estimate.value:7.4f}"
        )
    Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
