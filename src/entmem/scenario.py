"""Scenario file: the complete experiment configuration.

Scenarios are JSON with a strict schema taken from the dataclass fields:
unknown keys are rejected and every value must match its field's type
annotation, floats finite, so typos, NaN and inf fail at load time rather
than producing silently wrong data.  The storage-ordering constraint
(storage_time < fiber_delay) is enforced here, never at runtime.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .detection import DetectorParams, LossBudget, TimingConfig
from .errors import ConfigurationError, ValidationError
from .interferometer import AttenuatorSetting, balance_attenuation
from .memory import EITParams, MemoryDecayParams, MemoryNoiseParams
from .source import SourceParams, eta_from_tan2, tan2_eta_from_detuning

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CorrelationConstants:
    """Auto/cross-correlation constants and the g2-channel noise floor.

    The autocorrelation values are measured inputs (they are never
    simulated microscopically); g2_channel_background is the per-slot
    uncorrelated arm-2 click probability seen by the cross-correlation
    channel during retrieval.  pair_correlated=False models a coherent
    (classically correlated) source: no excess coincidences.
    """

    pair_correlated: bool = True
    g2_autocorr_s1: float = 1.2
    g2_autocorr_s2_pre: float = 1.38
    g2_autocorr_s2_post: float = 2.0
    g2_channel_background: float = 0.0

    def __post_init__(self):
        for name in ("g2_autocorr_s1", "g2_autocorr_s2_pre", "g2_autocorr_s2_post"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.g2_channel_background < 0:
            raise ConfigurationError("g2_channel_background must be >= 0")


@dataclass(frozen=True)
class MeasurementPlan:
    """Which measurements run and for how long."""

    chsh_angles: tuple[float, float, float, float] = (
        0.0,
        np.pi / 8,
        np.pi / 4,
        3 * np.pi / 8,
    )
    visibility_thetas: tuple[float, ...] = tuple(np.linspace(0.0, np.pi / 2, 16))
    visibility_arm1: str = "A"
    acquisition_s: dict[str, float] = field(
        default_factory=lambda: {
            "tomo_pre": 120.0,
            "tomo_post": 1200.0,
            "chsh_pre": 60.0,
            "chsh_post": 600.0,
            "vis_pre": 60.0,
            "vis_post": 600.0,
            "alpha_pre": 3600.0,
            "alpha_post": 14400.0,
            "g2": 600.0,
        }
    )
    n_resamples: int = 200
    error_bars: bool = True

    def __post_init__(self):
        if len(self.chsh_angles) != 4:
            raise ConfigurationError("chsh_angles must hold exactly 4 angles")
        if len(self.visibility_thetas) < 8:
            raise ConfigurationError("visibility sweep needs at least 8 angles")
        if self.visibility_arm1 not in ("H", "V", "D", "A", "R", "L"):
            raise ConfigurationError(f"unknown visibility arm-1 state {self.visibility_arm1!r}")
        missing = {
            "tomo_pre", "tomo_post", "chsh_pre", "chsh_post",
            "vis_pre", "vis_post", "alpha_pre", "alpha_post", "g2",
        } - set(self.acquisition_s)
        if missing:
            raise ConfigurationError(f"acquisition_s missing entries {sorted(missing)}")
        for key, val in self.acquisition_s.items():
            if val <= 0:
                raise ConfigurationError(f"acquisition_s[{key!r}] must be > 0")
        if self.n_resamples < 100:
            raise ConfigurationError("n_resamples must be >= 100")


@dataclass(frozen=True)
class Scenario:
    """Full experiment configuration; the unit the CLI operates on."""

    source: SourceParams
    eit: EITParams
    decay: MemoryDecayParams
    mem_noise: MemoryNoiseParams
    detector1: DetectorParams
    detector2: DetectorParams
    losses: LossBudget = LossBudget()
    timing: TimingConfig = TimingConfig()
    correlations: CorrelationConstants = CorrelationConstants()
    plan: MeasurementPlan = MeasurementPlan()
    attenuator: AttenuatorSetting | None = None  # None -> "auto"
    tan2_eta_anchors: tuple[tuple[float, float], ...] = ()
    master_seed: int = 0
    notes: tuple[str, ...] = ()

    def resolved_attenuator(self) -> AttenuatorSetting:
        if self.attenuator is not None:
            return self.attenuator
        return balance_attenuation(self.source.eta_f)


def classicalize(scenario: Scenario) -> Scenario:
    """Classical twin: full white noise and coherent-light correlations."""
    return replace(
        scenario,
        source=replace(scenario.source, p_white=1.0),
        correlations=replace(
            scenario.correlations,
            pair_correlated=False,
            g2_autocorr_s1=1.0,
            g2_autocorr_s2_pre=1.0,
            g2_autocorr_s2_post=1.0,
        ),
    )


# ---------------------------------------------------------------------------
# Strict JSON (de)serialization, derived from the dataclass fields.
#
# The section dataclasses hold the only copy of every key, type and default.
# The file differs from them only in its layout (see scenario_from_dict) and
# in the keys below, which it must give although the dataclass has a default.
# ---------------------------------------------------------------------------

_REQUIRED = {
    Scenario: ("master_seed",),
    SourceParams: ("p_white", "pair_prob"),
    MemoryDecayParams: ("tau_mem",),
    MemoryNoiseParams: ("p_depol", "background_flux"),
}

# Resolved field annotations of the Scenario and of every section: the schema.
_HINTS = {
    cls: get_type_hints(cls)
    for cls in (Scenario, AttenuatorSetting, *get_type_hints(Scenario).values())
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


def _required(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigurationError(f"missing required key {key!r} in {where}")
    return obj[key]


def _check(value, hint, where: str):
    """A JSON value checked against the field annotation `hint`.

    A float must be a finite number and not a bool (an int is converted);
    an int, bool or str must have exactly that type; tuples and dicts are
    checked element by element and dataclass sections key by key.
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
                _check(v, a, f"{where}[{i}]") for i, (v, a) in enumerate(zip(value, args))
            )
    if origin is dict and isinstance(value, dict):
        key_hint, value_hint = args
        return {
            _check(k, key_hint, where): _check(v, value_hint, f"{where}.{k}")
            for k, v in value.items()
        }
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
        if no_default or f.name in _REQUIRED.get(cls, ()):
            _required(data, f.name, where)
    return cls(**{key: _check(v, hints[key], f"{where}.{key}") for key, v in data.items()})


def scenario_from_dict(data: dict) -> Scenario:
    top = dict(_object(data, "scenario"))
    version = top.pop("schema_version", None)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    # The file's layout differs from the Scenario fields in four places: the
    # anchors sit under "source" (and give eta_f when it is "auto"), the
    # detectors are grouped, the plan is called "settings" and the default
    # attenuator is written "auto".  Every other key names a field.
    moved = set(top) & {"tan2_eta_anchors", "detector1", "detector2", "plan"}
    if moved:
        raise ConfigurationError(f"unknown keys {sorted(moved)} in scenario")
    source = dict(_object(_required(top, "source", "scenario"), "scenario.source"))
    anchors = _check(
        _required(source, "tan2_eta_anchors", "scenario.source"),
        _HINTS[Scenario]["tan2_eta_anchors"],
        "scenario.source.tan2_eta_anchors",
    )
    del source["tan2_eta_anchors"]
    if source.get("eta_f", "auto") == "auto":
        detuning = _check(
            source.get("two_photon_detuning", SourceParams.two_photon_detuning),
            float,
            "scenario.source.two_photon_detuning",
        )
        source["eta_f"] = eta_from_tan2(tan2_eta_from_detuning(detuning, anchors))
    top.update(source=_load(SourceParams, source, "scenario.source"), tan2_eta_anchors=anchors)

    detectors = dict(_object(_required(top, "detectors", "scenario"), "scenario.detectors"))
    for key, name in (("d1", "detector1"), ("d2", "detector2")):
        where = f"scenario.detectors.{key}"
        top[name] = _load(DetectorParams, _required(detectors, key, "scenario.detectors"), where)
        del detectors[key]
    if detectors:
        raise ConfigurationError(f"unknown keys {sorted(detectors)} in scenario.detectors")
    del top["detectors"]

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
    if isinstance(value, dict):
        return dict(value)
    return value


def scenario_to_dict(s: Scenario) -> dict:
    top = _dump(s)
    top["source"]["tan2_eta_anchors"] = top.pop("tan2_eta_anchors")
    top["detectors"] = {"d1": top.pop("detector1"), "d2": top.pop("detector2")}
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
