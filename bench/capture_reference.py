#!/usr/bin/env python3
"""Writes bench/reference.json: the figures op 0 of each workload must match.

    PYTHONPATH=src python3 bench/capture_reference.py

``poisson`` holds both stages of ``entmem simulate`` on the bundled
scenario at its master seed, error bars included; ``expected`` holds the
post-storage stage at the bundled storage time with expected counts.
Re-capture only when a change is meant to move these figures, and say by
how much in CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# Relative tolerance of every comparison: a solver that keeps sigma_F to
# four significant digits passes, one that moves it further fails.
REL_TOL = 1e-4


def capture() -> dict:
    from entmem import cli, pipeline
    from workloads import calibrated_without_error_bars, report_figures, stage_figures

    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out", tmp, "simulate"])
        if code != 0:
            raise SystemExit(f"entmem simulate exited with {code}")
        poisson = {
            stage: report_figures(json.loads(Path(tmp, f"report_{sfx}.json").read_text()))
            for stage, sfx in (("pre_storage", "pre"), ("post_storage", "post"))
        }
    result = pipeline.run_experiment(
        calibrated_without_error_bars(), "post_storage", sampling="expected"
    )
    return {
        "rel_tol": REL_TOL,
        "poisson": poisson,
        "expected": {"post_storage": stage_figures(result)},
    }


if __name__ == "__main__":
    bench = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench))
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    path = bench / "reference.json"
    path.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
