"""Scenario file: the complete experiment configuration.

Scenarios are JSON with a strict schema taken from the dataclass fields:
unknown keys are rejected and every value must match its field's type
annotation, floats finite, so typos, NaN and inf fail at load time rather
than producing silently wrong data.  The storage-ordering constraint
(storage_time < fiber_delay) and the g2 histogram's one-slot window are
enforced here, never at runtime.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

from .detection import G2_BIN_NS, G2_BINS_MAX, DetectorParams, Detectors, LossBudget, TimingConfig
from .errors import ConfigurationError, Range, Section, ValidationError
from .interferometer import AttenuatorSetting, balance_attenuation
from .memory import EITParams, MemoryDecayParams, MemoryNoiseParams
from .qstate import KETS
from .source import SourceParams, eta_from_tan2, gaussian_fwhm_sigma, tan2_eta_from_detuning

SCHEMA_VERSION = 1
# The most bootstrap resamples a scenario may ask for: the batched Newton
# solver holds about five (B, 16, 16) float64 arrays, 2 KB per row each, so
# this caps them near 100 MB, 50 times the 200 resamples of the bundled plan.
_N_RESAMPLES_MAX = 10_000


@dataclass(frozen=True)
class CorrelationConstants(Section):
    """Auto/cross-correlation constants and the g2-channel noise floor.

    The autocorrelation values are measured inputs (they are never
    simulated microscopically); g2_channel_background is the per-slot
    uncorrelated arm-2 click probability seen by the cross-correlation
    channel during retrieval.  pair_correlated=False models a coherent
    (classically correlated) source: no excess coincidences.
    """

    pair_correlated: bool = True
    g2_autocorr_s1: Annotated[float, Range(0, math.inf, "()")] = 1.2
    g2_autocorr_s2_pre: Annotated[float, Range(0, math.inf, "()")] = 1.38
    g2_autocorr_s2_post: Annotated[float, Range(0, math.inf, "()")] = 2.0
    g2_channel_background: Annotated[float, Range(0, math.inf, "[)")] = 0.0


@dataclass(frozen=True)
class AcquisitionTimes(Section):
    """Acquisition time in seconds of each measurement before (_pre) and after (_post)
    storage; one g2 histogram time serves both stages.  A file gives all nine or none."""

    tomo_pre: Annotated[float, Range(0, math.inf, "()")] = 120.0
    tomo_post: Annotated[float, Range(0, math.inf, "()")] = 1200.0
    chsh_pre: Annotated[float, Range(0, math.inf, "()")] = 60.0
    chsh_post: Annotated[float, Range(0, math.inf, "()")] = 600.0
    vis_pre: Annotated[float, Range(0, math.inf, "()")] = 60.0
    vis_post: Annotated[float, Range(0, math.inf, "()")] = 600.0
    alpha_pre: Annotated[float, Range(0, math.inf, "()")] = 3600.0
    alpha_post: Annotated[float, Range(0, math.inf, "()")] = 14400.0
    g2: Annotated[float, Range(0, math.inf, "()")] = 600.0


@dataclass(frozen=True)
class MeasurementPlan(Section):
    """Which measurements run and for how long."""

    chsh_angles: tuple[float, float, float, float] = (
        0.0,
        np.pi / 8,
        np.pi / 4,
        3 * np.pi / 8,
    )
    visibility_thetas: tuple[float, ...] = tuple(np.linspace(0.0, np.pi / 2, 16))
    visibility_arm1: str = "A"
    acquisition_s: AcquisitionTimes = AcquisitionTimes()
    n_resamples: Annotated[int, Range(100, _N_RESAMPLES_MAX)] = 200
    error_bars: bool = True

    def __post_init__(self):
        super().__post_init__()
        if len(self.chsh_angles) != 4 or not all(map(math.isfinite, self.chsh_angles)):
            raise ConfigurationError("chsh_angles must hold exactly 4 finite angles")
        # A half-wave plate turned by pi is back where it started, so a turn each way holds
        # every fringe setting; far past it the fringe's doubled and quadrupled angles are inf.
        thetas = self.visibility_thetas
        if len(thetas) < 8 or not all(abs(t) <= 2 * np.pi for t in thetas):
            raise ConfigurationError("visibility_thetas needs 8 or more angles in [-2 pi, 2 pi]")
        if self.visibility_arm1 not in KETS:
            raise ConfigurationError(f"unknown visibility arm-1 state {self.visibility_arm1!r}")


@dataclass(frozen=True)
class Scenario:
    """Full experiment configuration; the unit the CLI operates on."""

    source: SourceParams
    eit: EITParams
    decay: MemoryDecayParams
    mem_noise: MemoryNoiseParams
    detectors: Detectors
    losses: LossBudget = LossBudget()
    timing: TimingConfig = TimingConfig()
    correlations: CorrelationConstants = CorrelationConstants()
    plan: MeasurementPlan = MeasurementPlan()
    attenuator: AttenuatorSetting | None = None  # None -> "auto"
    master_seed: int = 0
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        # The g2 histogram bins one pulse slot around the delay: more than one bin and
        # at most G2_BINS_MAX, holding the +-2 sigma of the arm-2 wavepacket.
        slot, fwhm = self.timing.cycle_period_ns, self.source.s2_temporal_fwhm
        support = 4 * gaussian_fwhm_sigma(fwhm)
        if not (G2_BIN_NS < slot <= G2_BIN_NS * G2_BINS_MAX and support <= slot):
            raise ValidationError(
                f"timing.cycle_period_ns is {slot:g} ns: the g2 histogram's slot must exceed "
                f"one {G2_BIN_NS:g} ns bin, span at most {G2_BINS_MAX:g} bins and hold the "
                f"{support:.4g} ns +-2 sigma of a source.s2_temporal_fwhm {fwhm:g} ns wavepacket"
            )

    def resolved_attenuator(self) -> AttenuatorSetting:
        if self.attenuator is not None:
            return self.attenuator
        return balance_attenuation(self.source.eta_f)


# ---------------------------------------------------------------------------
# Strict JSON (de)serialization, derived from the dataclass fields.
#
# The section dataclasses hold the only copy of every key, type and default,
# and the file's layout is the Scenario tree but for three places (see
# scenario_from_dict).  The file must give the keys below although the
# dataclass has a default.
# ---------------------------------------------------------------------------

_REQUIRED = {
    Scenario: ("master_seed",),
    SourceParams: ("p_white", "pair_prob", "tan2_eta_anchors"),
    MemoryDecayParams: ("tau_mem",),
    MemoryNoiseParams: ("p_depol", "background_flux"),
    AcquisitionTimes: tuple(f.name for f in fields(AcquisitionTimes)),
}

# Resolved field annotations of the Scenario and of every section in its tree: the schema.
_NESTED = (AttenuatorSetting, AcquisitionTimes, DetectorParams)  # in an Optional or a section
_HINTS = {
    cls: get_type_hints(cls)
    for cls in (Scenario, *_NESTED, *get_type_hints(Scenario).values())
    if is_dataclass(cls)
}

_KINDS = {
    float: "a finite number",
    int: "a 64-bit integer",
    bool: "true or false",
    str: "a string",
}


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {value!r}")
    return value


def check_value(value, hint, where: str):
    """A JSON value checked against the field annotation `hint`.

    A float must be a finite number and not a bool (an int is converted);
    an int, bool or str must have exactly that type; tuples are checked
    element by element and dataclass sections key by key.  The CLI and
    calibrate check their own inputs with it too.
    """
    if is_dataclass(value):  # a section scenario_from_dict has already built
        return value
    if is_dataclass(hint):
        return _load(hint, value, where)
    origin, args = get_origin(hint), get_args(hint)
    if hint is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if hint in (int, bool, str) and type(value) is hint:
        if hint is not int or -(2**63) <= value < 2**63:
            return value
    if origin is tuple and isinstance(value, (list, tuple)):
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(value) == len(args):
            return tuple(
                check_value(v, a, f"{where}[{i}]") for i, (v, a) in enumerate(zip(value, args))
            )
    raise ConfigurationError(f"{where} must be {_KINDS.get(hint, hint)}, got {value!r}")


def _load(cls, data, where: str):
    """Build the dataclass `cls` from a JSON object, checking every key.

    Unknown keys are rejected.  A key is required when its field has no
    default or is listed in _REQUIRED; an absent key takes the default.
    """
    data = _object(data, where)
    hints = _HINTS[cls]
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigurationError(f"unknown keys {sorted(unknown)} in {where}")
    for f in fields(cls):
        no_default = f.default is MISSING and f.default_factory is MISSING
        if (no_default or f.name in _REQUIRED.get(cls, ())) and f.name not in data:
            raise ConfigurationError(f"missing required key {f.name!r} in {where}")
    values = {key: check_value(v, hints[key], f"{where}.{key}") for key, v in data.items()}
    try:
        return cls(**values)
    except ValidationError as exc:  # the section's own check: name the field or the section
        raise type(exc)(f"{where}.{exc}" if exc.field else f"{where}: {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    top = dict(_object(data, "scenario"))
    version = top.pop("schema_version", None)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    # Every key names a Scenario field but in three places: the plan is
    # called "settings", the default attenuator is written "auto", and
    # source.eta_f "auto" is read off the source's tan2_eta_anchors.
    if "plan" in top:
        raise ConfigurationError("unknown keys ['plan'] in scenario")
    source = top.get("source")
    if isinstance(source, dict) and source.get("eta_f", "auto") == "auto":
        # read off the anchors at the detuning, once the rest of the source has loaded
        loaded = _load(SourceParams, {**source, "eta_f": np.pi / 4}, "scenario.source")
        try:
            tan2 = tan2_eta_from_detuning(loaded.two_photon_detuning, loaded.tan2_eta_anchors)
        except ValidationError as exc:  # an anchor rule: name the section, as _load does
            raise ValidationError(f"scenario.source: {exc}") from exc
        top["source"] = {**source, "eta_f": eta_from_tan2(tan2)}
    if "settings" in top:
        top["plan"] = _load(MeasurementPlan, top.pop("settings"), "scenario.settings")
    attenuator = top.pop("attenuator", "auto")
    if attenuator != "auto":
        top["attenuator"] = _load(AttenuatorSetting, attenuator, "scenario.attenuator")
    return _load(Scenario, top, "scenario")


def _dump(value):
    """JSON form of a field value: dataclasses become objects, tuples lists."""
    if is_dataclass(value):
        return {f.name: _dump(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    return value


def scenario_to_dict(s: Scenario) -> dict:
    top = _dump(s)
    top["settings"] = top.pop("plan")
    if s.attenuator is None:
        top["attenuator"] = "auto"
    return {"schema_version": SCHEMA_VERSION, **top}


def read_input(path: str | Path) -> str:
    """UTF-8 text of an input file; a missing, unreadable or non-UTF-8 file exits 2."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read input file {path}: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not a JSON scenario: {exc}") from exc
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n")


def bundled_scenario_path(name: str = "baseline") -> Path:
    return Path(__file__).parent / "scenarios" / f"{name}.json"


def load_bundled_scenario(name: str = "baseline") -> Scenario:
    return load_scenario(bundled_scenario_path(name))
