"""Span tracing around the public functions of entmem's layers.

The wrappers are installed from outside the package: every ``entmem``
module that binds a traced function (the defining module, the modules that
import it by name and the package namespace) gets the wrapper in place of
the original, so a call is seen whichever name it goes through.  Nothing
under ``src/`` changes, and ``uninstall`` puts every original back.

A span is ``[layer, start, end, parent, op, failed, counters]``; spans are
kept in memory and written out once, when the run ends.  A layer's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import entmem.estimators

# Traced layers, each named by the dotted path of its definition under
# ``entmem``; the per-layer metrics use the same names.
LAYERS = (
    "cli.main",
    "pipeline.run_experiment",
    "pipeline.report_emit",
    "calibrate.calibrate",
    "scenario.load_bundled_scenario",
    "experiment.stage_state",
    "experiment.memory_efficiency",
    "memory.eit_transmission",
    "estimators.tomo_mle",
    "estimators.tomo_linear",
    "estimators.TomographySettingSet.standard",
    "estimators.mc_error",
    "estimators.visibility_fit",
    "estimators.chsh_E",
    "qstate.fidelity",
    "rng.derive_rng",
    "detection.sample_counts",
    "detection.expected_counts",
    "detection.heralded_alpha",
    "detection.g2_histogram",
    "detection.records_to_csv",
)

# Exceptions raised out of these inside ``mc_error`` are failed resamples,
# which ``mc_error`` itself swallows.
RESAMPLE_ESTIMATORS = ("estimators.tomo_mle", "estimators.chsh_E", "detection.heralded_alpha")

LAYER, START, END, PARENT, OP, FAILED, COUNTERS = range(7)


def _resolve(path: str):
    """(owner, attribute) of a dotted path under ``entmem``."""
    parts = path.split(".")
    owner = importlib.import_module("entmem." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _resamples(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"resamples": int(bound.arguments["n_resamples"])}

    return count


def _emitted(args, kwargs, result):
    files = set(result)
    return {"files": len(files), "bytes_written": sum(Path(p).stat().st_size for p in files)}


def _visibility_discarded(args, kwargs, result):
    # With error bars off, run_experiment keeps the fringe fit's value and
    # replaces its sigma by 0, so the resamples it drew were thrown away.
    return {"visibility_discarded": result.visibility.estimate.n_resamples == 0}


class Tracer:
    """Records spans for every call into ``LAYERS`` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            owner, attr = _resolve(layer)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(layer, original.__func__)))
                continue
            wrapper = self._wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if name != "entmem" and not name.startswith("entmem."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._patch(entmem.estimators, "minimize", self._count_minimize(entmem.estimators.minimize))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters = {
            "estimators.mc_error": _resamples(fn),
            "estimators.visibility_fit": _resamples(fn),
            "pipeline.report_emit": _emitted,
            "pipeline.run_experiment": _visibility_discarded,
        }.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if counters is not None:
                extra = counters(args, kwargs, result)
                span[COUNTERS] = {**(span[COUNTERS] or {}), **extra}
            return result

        return traced

    def _count_minimize(self, fn):
        """Adds each solver start's evaluations to the enclosing span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            if stack:
                span = spans[stack[-1]]
                c = span[COUNTERS] = span[COUNTERS] or {"starts": 0, "nfev": 0, "nit": 0}
                c["starts"] += 1
                c["nfev"] += int(res.nfev)
                c["nit"] += int(res.nit)
            return res

        return counted

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"fields": ["layer", "start", "end", "parent", "op", "failed", "counters"],
                        "spans": self.spans})
        )


def layer_totals(spans: list[list], ops: set) -> dict[str, dict[str, float]]:
    """Per-layer calls, busy and self seconds, failures and counters.

    Only spans of the given ops count.  ``busy_s`` counts a span only when
    no enclosing span has the same layer, so a layer that calls itself is
    not counted twice.
    """

    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def ancestors(span):
        while span[PARENT] >= 0:
            span = spans[span[PARENT]]
            yield span

    totals = {layer: defaultdict(float) for layer in LAYERS}
    for i, span in enumerate(spans):
        if span[OP] not in ops:
            continue
        layer, counters = span[LAYER], span[COUNTERS] or {}
        t = totals[layer]
        duration = span[END] - span[START]
        t["calls"] += 1
        t["self_s"] += duration - child_time[i]
        t["failed"] += span[FAILED]
        if all(a[LAYER] != layer for a in ancestors(span)):
            t["busy_s"] += duration
        for key in ("starts", "nfev", "nit", "resamples", "files", "bytes_written"):
            t[key] += counters.get(key, 0)
        if span[FAILED] and layer in RESAMPLE_ESTIMATORS and any(
            a[LAYER] == "estimators.mc_error" for a in ancestors(span)
        ):
            totals["estimators.mc_error"]["failed_resamples"] += 1
        if layer == "estimators.visibility_fit":
            run = next((a for a in ancestors(span) if a[LAYER] == "pipeline.run_experiment"), None)
            if run is not None and (run[COUNTERS] or {}).get("visibility_discarded"):
                t["resamples_discarded"] += counters.get("resamples", 0)
    return totals
