#!/usr/bin/env python3
"""Ensemble study: figure-of-merit means and spreads over many seeds,
compared against the published values and their error bars."""

import argparse

import numpy as np

from entmem.calibrate import calibrate
from entmem.pipeline import seed_ensemble
from entmem.scenario import load_bundled_scenario

PUBLISHED = {
    "F_pre": (0.881, 0.026),
    "F_post": (0.888, 0.044),
    "S_pre": (2.49, 0.06),
    "S_post": (2.38, 0.12),
    "V_pre": (0.883, 0.027),
    "V_post": (0.812, 0.040),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=100)
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    scenario, _ = calibrate(load_bundled_scenario())
    figures = seed_ensemble(scenario, args.runs)

    print(f"{'quantity':>8} {'sim mean':>9} {'sim sd':>7} {'published':>12} {'in 2-sigma band':>16}")
    for key, (center, sigma) in PUBLISHED.items():
        mean, sd = np.mean(figures[key]), np.std(figures[key])
        inside = abs(mean - center) <= 2 * sigma
        print(
            f"{key:>8} {mean:9.4f} {sd:7.4f} {center:7.3f}+-{sigma:5.3f}"
            f" {'yes' if inside else 'NO':>16}"
        )


if __name__ == "__main__":
    main()
