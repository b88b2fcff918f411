"""The benchmark's three workloads: set-up, one op, and its output checks.

Every op calls entmem through module attributes (``pipeline.run_experiment``,
``cli.main``), so the tracer's wrappers see it; the checks use names bound
here at import, which the tracer never replaces, so checking adds no spans.

Op 0 of every workload is the bundled scenario at its own master seed,
which is what a plain ``entmem simulate`` runs; its figures are compared
with ``reference.json``.  Ops 1, 2, ... draw their inputs from the
workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from entmem import cli, pipeline
from entmem.calibrate import calibrate
from entmem.experiment import memory_efficiency
from entmem.scenario import load_bundled_scenario

REFERENCE_PATH = Path(__file__).parent / "reference.json"
REPORT_FILES = 28
PSD_TOL = 1e-9
UNIT_TOL = 1e-9
STORAGE_NS = (10.0, 400.0)


# -- figures and checks shared by the workloads -----------------------------


def stage_figures(result) -> dict[str, float]:
    """The figures of merit of a ``StageResult``, keyed as in reference.json."""
    return {
        "F": result.fidelity.value,
        "sigma_F": result.fidelity.sigma,
        "S": result.chsh_S.value,
        "sigma_S": result.chsh_S.sigma,
        "V": result.visibility.estimate.value,
        "sigma_V": result.visibility.estimate.sigma,
        "alpha": result.alpha.value,
        "sigma_alpha": result.alpha.sigma,
        "R": result.cauchy_schwarz["R"],
        "sigma_R": result.cauchy_schwarz["sigma"],
        "g2_peak": result.g2_peak,
        "eta": result.eta,
    }


def report_figures(report: dict) -> dict[str, float]:
    """The same figures read back from an emitted ``report_*.json``."""
    return {
        "F": report["fidelity"]["value"],
        "sigma_F": report["fidelity"]["sigma"],
        "S": report["chsh"]["value"],
        "sigma_S": report["chsh"]["sigma"],
        "V": report["visibility"]["value"],
        "sigma_V": report["visibility"]["sigma"],
        "alpha": report["alpha"]["value"],
        "sigma_alpha": report["alpha"]["sigma"],
        "R": report["cauchy_schwarz"]["R"],
        "sigma_R": report["cauchy_schwarz"]["sigma"],
        "g2_peak": report["g2"]["peak"],
        "eta": report["memory"]["eta"],
    }


def check_figures(figures: dict, rho: np.ndarray, where: str) -> list[str]:
    """Every figure finite and the MLE state physical."""
    problems = [f"{where}: {k} = {v!r} is not finite" for k, v in figures.items()
                if not math.isfinite(v)]
    rho = np.asarray(rho, dtype=complex)
    if np.max(np.abs(rho - rho.conj().T)) > UNIT_TOL:
        problems.append(f"{where}: rho_mle is not Hermitian")
    elif np.linalg.eigvalsh(rho).min() < -PSD_TOL:
        problems.append(f"{where}: rho_mle is not positive semidefinite")
    if abs(np.trace(rho) - 1.0) > UNIT_TOL:
        problems.append(f"{where}: rho_mle trace {np.trace(rho).real!r} is not 1")
    return problems


def check_reference(figures: dict, reference: dict, tol: float, where: str) -> list[str]:
    """Figures against the values captured in reference.json."""
    return [
        f"{where}: {k} = {figures[k]!r}, reference {want!r} (rel tol {tol:g})"
        for k, want in reference.items()
        if not math.isclose(figures[k], want, rel_tol=tol, abs_tol=1e-300)
    ]


def _digest(figures: dict, rho) -> tuple:
    return tuple(figures.values()) + tuple(np.asarray(rho, dtype=complex).ravel())


def calibrated_without_error_bars():
    scenario, _ = calibrate(load_bundled_scenario())
    return replace(scenario, plan=replace(scenario.plan, error_bars=False))


# -- workloads -----------------------------------------------------------------


class Workload:
    """One workload: ``inputs`` yields op inputs, ``run`` is the timed op.

    ``check`` returns the problems found in one op's output and a digest
    of its figures, which traced and untraced runs must reproduce exactly;
    ``finish`` checks properties that span several ops.
    """

    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.reference = json.loads(REFERENCE_PATH.read_text())

    def _check_reference(self, figures, mode, stage, skip=()):
        want = {k: v for k, v in self.reference[mode][stage].items() if k not in skip}
        return check_reference(figures, want, self.reference["rel_tol"], f"{stage} reference")

    def inputs(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[list[str], object]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []

    def _seeds(self):
        yield None
        while True:
            yield int(self.rng.integers(1, 2**31))


class ReportErrorBars(Workload):
    name = "report_error_bars"

    def inputs(self):
        return self._seeds()

    def run(self, seed):
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        argv = ["--out", str(out)] + ([] if seed is None else ["--seed", str(seed)])
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["simulate"])
        return code, out

    def check(self, seed, out):
        code, path = out
        try:
            problems = [] if code == 0 else [f"exit code {code}"]
            files = [p for p in path.rglob("*") if p.is_file()]
            if len(files) != REPORT_FILES:
                problems.append(f"{len(files)} files written, expected {REPORT_FILES}")
            digest = []
            for stage, sfx in (("pre_storage", "pre"), ("post_storage", "post")):
                text = (path / f"report_{sfx}.json").read_text()
                report = json.loads(text)
                figures = report_figures(report)
                rho = [[complex(*z) for z in row] for row in report["tomography"]["rho_mle"]["rho"]]
                problems += check_figures(figures, rho, stage)
                if seed is None:
                    problems += self._check_reference(figures, "poisson", stage)
                digest.append(text)
            return problems, tuple(digest)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable reports: {exc!r}"], None
        finally:
            shutil.rmtree(path, ignore_errors=True)


class SeedEnsemble(Workload):
    name = "seed_ensemble"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.scenario = calibrated_without_error_bars()

    def inputs(self):
        for seed in self._seeds():
            yield self.scenario.master_seed if seed is None else seed

    def run(self, seed):
        scenario = replace(self.scenario, master_seed=seed)
        return [pipeline.run_experiment(scenario, stage) for stage in pipeline.STAGES]

    def check(self, seed, out):
        problems, digest = [], ()
        for result in out:
            figures = stage_figures(result)
            problems += check_figures(figures, result.rho_mle.rho, result.stage)
            if seed == self.scenario.master_seed:
                # Without error bars the sigmas of F, S, V and alpha are 0.
                problems += self._check_reference(
                    figures, "poisson", result.stage,
                    skip=("sigma_F", "sigma_S", "sigma_V", "sigma_alpha"),
                )
            digest += _digest(figures, result.rho_mle.rho)
        return problems, digest


class StorageSweep(Workload):
    name = "storage_sweep"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.scenario = calibrated_without_error_bars()
        self.etas: list[tuple[float, float]] = []

    def inputs(self):
        yield self.scenario.timing.storage_time_ns
        while True:
            yield float(self.rng.uniform(*STORAGE_NS))

    def _at(self, t_ns):
        return replace(self.scenario, timing=replace(self.scenario.timing, storage_time_ns=t_ns))

    def run(self, t_ns):
        return pipeline.run_experiment(self._at(t_ns), "post_storage", sampling="expected")

    def check(self, t_ns, out):
        figures = stage_figures(out)
        problems = check_figures(figures, out.rho_mle.rho, f"t={t_ns!r} ns")
        want = memory_efficiency(self._at(t_ns))
        if out.eta != want:
            problems.append(f"t={t_ns!r} ns: eta {out.eta!r} != memory_efficiency {want!r}")
        if t_ns == self.scenario.timing.storage_time_ns:
            problems += self._check_reference(figures, "expected", "post_storage")
        self.etas.append((t_ns, out.eta))
        return problems, _digest(figures, out.rho_mle.rho)

    def finish(self):
        points = sorted(set(self.etas))
        return [
            f"eta not strictly decreasing: {a!r} -> {b!r}"
            for a, b in zip(points, points[1:])
            if a[0] < b[0] and not a[1] > b[1]
        ]


WORKLOADS = {w.name: w for w in (ReportErrorBars, SeedEnsemble, StorageSweep)}
