import copy
import json
import math
import re
import warnings
from dataclasses import fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entmem.scenario
from conftest import classicalize
from entmem.cli import main
from entmem.detection import DetectorParams, LossBudget, TimingConfig
from entmem.errors import ConfigurationError, EntmemError, Section, ValidationError
from entmem.interferometer import AttenuatorSetting
from entmem.memory import EITParams, MemoryDecayParams, MemoryNoiseParams
from entmem.scenario import (
    AcquisitionTimes,
    CorrelationConstants,
    MeasurementPlan,
    bundled_scenario_path,
    load_bundled_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from entmem.source import SPECTRAL_FWHM_MIN_MHZ, SourceParams

BUNDLED = json.loads(bundled_scenario_path().read_text())


@pytest.fixture(scope="module")
def baseline():
    return load_bundled_scenario()


def test_bundled_scenario_loads(baseline):
    assert baseline.timing.storage_time_ns < baseline.timing.fiber_delay_ns
    assert baseline.source.eta_f == pytest.approx(np.arctan(np.sqrt(1.5)))
    assert baseline.correlations.pair_correlated


def test_round_trip_preserves_values(baseline, tmp_path):
    path = tmp_path / "scn.json"
    save_scenario(baseline, path)
    back = load_scenario(path)
    assert scenario_to_dict(back) == scenario_to_dict(baseline)


@pytest.mark.parametrize(
    "change",
    [
        {},
        {"attenuator": AttenuatorSetting(t_h=0.5, balanced=False)},
        {"notes": (), "master_seed": 7},
    ],
)
def test_save_then_load_is_identity(baseline, tmp_path, change):
    scenario = replace(baseline, **change)
    path = tmp_path / "scn.json"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_section_keys_come_from_dataclass_fields(baseline):
    # scenario.py never names this field: load, default and dump all come
    # from LossBudget alone, as they would for a newly added field.
    assert "s1_filters" not in Path(entmem.scenario.__file__).read_text()
    d = scenario_to_dict(baseline)
    d["losses"]["s1_filters"] = 0.5
    s = scenario_from_dict(d)
    assert s.losses.s1_filters == 0.5
    assert scenario_to_dict(s)["losses"]["s1_filters"] == 0.5
    del d["losses"]["s1_filters"]
    assert scenario_from_dict(d).losses.s1_filters == LossBudget.s1_filters


def _field_paths(node, prefix=()):
    for f in fields(node):
        yield prefix + (f.name,)
        if is_dataclass(getattr(node, f.name)):
            yield from _field_paths(getattr(node, f.name), prefix + (f.name,))


def test_file_layout_is_the_scenario_tree(baseline):
    # every key path of the bundled file is a field path of its Scenario, holding the field's
    # value, and the other way round; but for the schema version, the file differs in three
    # places only: "settings" is the plan, and the attenuator and source.eta_f are "auto"
    auto = {("attenuator",), ("source", "eta_f")}
    paths = {}
    for path in _key_paths(BUNDLED):
        node = BUNDLED
        for key in path:
            node = node[key]
        paths[tuple("plan" if key == "settings" else key for key in path)] = node
    assert paths.pop(("schema_version",)) == 1
    assert set(paths) == set(_field_paths(baseline))
    for path, value in paths.items():
        if path in auto:
            assert value == "auto"
        elif not isinstance(value, dict):
            assert entmem.scenario._dump(attrgetter(".".join(path))(baseline)) == value, path


def test_int_literal_in_float_field_loads_as_float(baseline):
    d = scenario_to_dict(baseline)
    d["timing"]["rep_rate"] = 100
    s = scenario_from_dict(d)
    assert type(s.timing.rep_rate) is float
    assert json.dumps(scenario_to_dict(s)["timing"]["rep_rate"]) == "100.0"


# (file path, value): each must be rejected at load with exit code 2.
BAD_VALUES = [
    (("eit", "optical_depth"), float("nan")),
    (("eit", "gamma_g"), float("inf")),
    (("decay", "tau_mem"), float("nan")),
    # 3 tau_mem, the span of the efficiency curve, is past the float range
    (("decay", "tau_mem"), 1e308),
    # rabi_coupling**2 is past the float range
    (("eit", "rabi_coupling"), 1e300),
    # the susceptibility's products of rates are past the float range
    (("eit", "gamma_e"), 1e308),
    (("eit", "gamma_g"), 1e308),
    # the 8-FWHM grid of the signal spectrum is past the float range
    (("source", "s2_spectral_fwhm"), 1e308),
    # the line's density, or its square, on the spectral overlap grid is past the float range
    (("source", "s2_spectral_fwhm"), 1e-300),
    (("source", "s2_spectral_fwhm"), 1e-320),
    # a count rate times the dead time is past the float range
    (("detectors", "d1", "dead_time"), 1e308),
    # the fringe's doubled analysis angle is past the float range
    (("settings", "visibility_thetas", 7), 1e308),
    (("timing", "rep_rate"), float("-inf")),
    (("timing", "fiber_delay_ns"), float("inf")),
    (("correlations", "g2_autocorr_s1"), float("nan")),
    (("mem_noise", "background_flux"), float("inf")),
    (("source", "phi_f"), float("nan")),
    (("source", "p_white"), None),
    (("losses", "s2_path"), "0.5"),
    (("eit", "optical_depth"), True),
    (("timing", "cycles_per_duty"), 2600.0),
    (("settings", "n_resamples"), 5),
    (("settings", "n_resamples"), "200"),
    (("settings", "n_resamples"), 2**62),
    (("settings", "acquisition_s", "g2_post"), 1.0),
    (("settings", "error_bars"), 1),
    (("settings", "acquisition_s", "g2"), float("nan")),
    (("settings", "chsh_angles"), [0.0, 0.1, 0.2]),
    (("source", "tan2_eta_anchors"), [[-30.0, float("nan")]]),
    (("eit", "probe_grid_mhz"), [-60.0, 60.0, 10**7]),
    # the probe detunings' squares, or the spectral overlap's grid, are past the float range
    (("eit", "probe_grid_mhz"), [-1e300, 1e300, 2401]),
    (("eit", "probe_grid_mhz"), [-60.0, 1e150, 2401]),
    # duty windows that overfill a second: the pulse rate times the count models is inf
    (("timing", "rep_rate"), 1e308),
    (("timing", "storage_time_ns"), -5.0),
    (("timing", "cycles_per_duty"), 10**400),
    # past a second the g2 histogram's 2 ns bins around the delay are not exact float steps
    (("timing", "fiber_delay_ns"), 1e17),
    # the g2 histogram's one-slot window: one bin, or too short for the wavepacket's +-2 sigma
    (("timing", "cycle_period_ns"), 1.0),
    (("timing", "cycle_period_ns"), 3.0),
    (("source", "s2_temporal_fwhm"), 500.0),
    (("notes",), [1]),
    (("attenuator",), None),
]


@pytest.mark.parametrize(
    "path, value", BAD_VALUES, ids=[f"{'.'.join(map(str, p))}={v!r:.12}" for p, v in BAD_VALUES]
)
def test_bad_values_exit_2(tmp_path, path, value):
    assert main(["--scenario", _edited(tmp_path, path, value), "--out", str(tmp_path), "eit"]) == 2


def _edited(tmp_path, path, value) -> str:
    """The path of a copy of the bundled scenario file with the value at path replaced."""
    d = copy.deepcopy(BUNDLED)
    *parents, key = path
    node = d
    for part in parents:
        node = node[part]
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    return str(bad)


_G2_WINDOW_FIELDS = (("timing", "cycle_period_ns"), ("source", "s2_temporal_fwhm"))
_G2_WINDOW_VALUES = [(p, v) for p, v in BAD_VALUES if p in _G2_WINDOW_FIELDS]


@pytest.mark.parametrize(
    "path, value", _G2_WINDOW_VALUES, ids=[f"{p[-1]}={v!r}" for p, v in _G2_WINDOW_VALUES]
)
@pytest.mark.parametrize(
    "command",
    [["eit"], ["calibrate"], ["simulate", "--skip-calibration", "--sampling", "expected"]],
    ids=["eit", "calibrate", "simulate"],
)
def test_g2_window_rule_exits_2_at_load_naming_both_fields(tmp_path, capsys, path, value, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--scenario", _edited(tmp_path, path, value), "--out", str(tmp_path), *command])
    err = capsys.readouterr().err
    assert rc == 2
    assert "timing.cycle_period_ns" in err and "source.s2_temporal_fwhm" in err


@pytest.mark.parametrize("fwhm", [1e-300, 1e-320])
@pytest.mark.parametrize(
    "command",
    [["eit"], ["calibrate"], ["simulate", "--skip-calibration", "--sampling", "expected"]],
    ids=["eit", "calibrate", "simulate"],
)
def test_spectral_fwhm_below_its_bound_exits_2_at_load_naming_it(tmp_path, capsys, fwhm, command):
    path = _edited(tmp_path, ("source", "s2_spectral_fwhm"), fwhm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--scenario", path, "--out", str(tmp_path), *command])
    assert rc == 2
    assert "source.s2_spectral_fwhm" in capsys.readouterr().err


def test_spectral_fwhm_at_its_lower_bound_loads():
    d = copy.deepcopy(BUNDLED)
    d["source"]["s2_spectral_fwhm"] = 1e-9
    assert scenario_from_dict(d).source.s2_spectral_fwhm == SPECTRAL_FWHM_MIN_MHZ == 1e-9


@pytest.mark.parametrize(
    "slot, fwhm, accepted",
    [
        (2.0, 1.0, False),  # one 2 ns bin
        (2.5, 1.0, True),
        (500.0, 294.0, True),  # +-2 sigma is 499.4 ns
        (500.0, 295.0, False),  # +-2 sigma is 501.1 ns
        (2e5, 294.0, True),  # 1e5 bins
        (200002.0, 294.0, False),  # 1e5 + 1 bins
    ],
)
def test_g2_slot_must_exceed_a_bin_and_hold_the_wavepacket(baseline, slot, fwhm, accepted):
    # one cycle per duty window, so that the window holds the slot
    timing = replace(baseline.timing, cycle_period_ns=slot, cycles_per_duty=1)
    source = replace(baseline.source, s2_temporal_fwhm=fwhm)
    if accepted:
        replace(baseline, timing=timing, source=source)
    else:
        with pytest.raises(ValidationError, match="timing.cycle_period_ns .* source.s2_temporal_fwhm"):
            replace(baseline, timing=timing, source=source)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("detectors", "d2", "efficiency"), 2, "is 2.0, outside [0, 1]"),
        (("losses", "s2_filters"), 1.5, "is 1.5, outside [0, 1]"),
        (("source", "s2_temporal_fwhm"), 0.0, "is 0.0, outside (0, inf)"),
    ],
    ids=["detectors.d2.efficiency", "losses.s2_filters", "source.s2_temporal_fwhm"],
)
def test_rejected_section_value_names_its_section(tmp_path, capsys, path, value, message):
    assert main(["--scenario", _edited(tmp_path, path, value), "--out", str(tmp_path), "eit"]) == 2
    assert capsys.readouterr().err == f"error: scenario.{'.'.join(path)} {message}\n"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("source", "two_photon_detuning"), -50.0, "detuning -50.0 MHz outside anchor range"),
        (("source", "tan2_eta_anchors"), [[-10.0, 0.75], [-30.0, 2.25]], "must be strictly incr"),
        (("source", "tan2_eta_anchors"), [], "tan2-eta anchor table is empty"),
        (("source", "tan2_eta_anchors"), [[-30.0, 2.25], [-10.0, 0.0]], "must be positive"),
    ],
    ids=["outside", "decreasing", "empty", "non-positive"],
)
def test_rejected_anchor_table_names_the_source(tmp_path, capsys, path, value, message):
    assert main(["--scenario", _edited(tmp_path, path, value), "--out", str(tmp_path), "eit"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario.source: ") and message in err


# Fields that no model read, removed from the schema: a file holding one is rejected.
@pytest.mark.parametrize(
    "section, key", [("timing", "pump1_fwhm_ns"), ("source", "s1_temporal_fwhm")]
)
def test_removed_field_exits_2_as_an_unknown_key(tmp_path, capsys, section, key):
    bad = _edited(tmp_path, (section, key), 20.0)
    assert main(["--scenario", bad, "--out", str(tmp_path), "eit"]) == 2
    assert capsys.readouterr().err == f"error: unknown keys [{key!r}] in scenario.{section}\n"


# Every Section, the Scenario field holding it and its path in the scenario file.
_SECTIONS = (
    (DetectorParams, "detectors.d1", "detectors.d1"),
    (DetectorParams, "detectors.d2", "detectors.d2"),
    (LossBudget, "losses", "losses"),
    (TimingConfig, "timing", "timing"),
    (SourceParams, "source", "source"),
    (EITParams, "eit", "eit"),
    (MemoryDecayParams, "decay", "decay"),
    (MemoryNoiseParams, "mem_noise", "mem_noise"),
    (AttenuatorSetting, "attenuator", "attenuator"),
    (CorrelationConstants, "correlations", "correlations"),
    (MeasurementPlan, "plan", "settings"),
    (AcquisitionTimes, "plan.acquisition_s", "settings.acquisition_s"),
)
_RANGED = [(attr, path, name, r) for cls, attr, path in _SECTIONS for name, r in cls.ranges]


def test_every_section_is_listed():
    assert {cls for cls, _, _ in _SECTIONS} == set(Section.__subclasses__())
    assert len(_RANGED) == 49


@pytest.mark.parametrize(
    "attr, path, name, r", _RANGED, ids=[f"{path}.{name}" for _, path, name, _ in _RANGED]
)
def test_a_range_rejects_every_value_outside_it(baseline, tmp_path, capsys, attr, path, name, r):
    section = baseline.resolved_attenuator() if attr == "attenuator" else attrgetter(attr)(baseline)
    integer = type(getattr(section, name)) is int

    def rejected(value):
        message = f"^{name} is .*, outside {re.escape(str(r))}$"
        with pytest.raises(ValidationError, match=message) as info:
            replace(section, **{name: value})
        assert info.value.field == name

    for end, bracket, away in ((r.lo, r.ends[0], -math.inf), (r.hi, r.ends[1], math.inf)):
        if math.isinf(end):
            assert bracket in "()"  # an infinite end is open, so that inf lies outside
            continue
        if bracket in "()":
            rejected(end)
        else:
            assert getattr(replace(section, **{name: end}), name) == end
        rejected(float(np.nextafter(end, away)))
    for value in (math.nan, math.inf, -math.inf):
        rejected(value)

    # written into the scenario file, a value outside exits 2 at load, named by its path; with
    # no finite end, the value outside is inf, which the file's codec rejects first
    end, away = (r.lo, -1) if math.isfinite(r.lo) else (r.hi, 1)
    outside = end + away if integer else float(np.nextafter(end, away * math.inf))
    edit = ("attenuator",), {"t_h": outside}
    if attr != "attenuator":
        edit = (*path.split("."), name), outside
    assert main(["--scenario", _edited(tmp_path, *edit), "--out", str(tmp_path), "eit"]) == 2
    err = capsys.readouterr().err
    assert f"scenario.{path}.{name} " in err
    assert f"scenario.{path}.{name} is {outside!r}, outside {r}" in err or math.isinf(outside)


@pytest.mark.parametrize(
    "change",
    [
        {"visibility_thetas": (math.nan,) + MeasurementPlan().visibility_thetas[1:]},
        {"visibility_thetas": MeasurementPlan().visibility_thetas[:-1] + (math.nan,)},
        {"chsh_angles": (0.0, math.nan, np.pi / 4, 3 * np.pi / 8)},
        {"chsh_angles": (0.0, np.pi / 8, np.pi / 4, math.inf)},
    ],
    ids=["theta0-nan", "theta15-nan", "chsh1-nan", "chsh3-inf"],
)
def test_plan_elements_reject_nan_and_inf(change):
    with pytest.raises(ConfigurationError):
        MeasurementPlan(**change)


def test_non_json_scenario_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--scenario", str(bad), "--out", str(tmp_path), "eit"]) == 2


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_leaves = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), None, True, False]),
    st.text(max_size=6),
    st.integers(-5, 5000),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@given(
    path=st.sampled_from(sorted(_key_paths(BUNDLED))),
    action=st.sampled_from(["replace", "delete", "add"]),
    value=_values,
    new_key=st.text(max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_fuzzed_scenario_raises_only_entmem_errors(path, action, value, new_key):
    d = copy.deepcopy(BUNDLED)
    *parents, key = path
    node = d
    for part in parents:
        node = node[part]
    if action == "replace":
        node[key] = value
    elif action == "delete":
        del node[key]
    else:
        (node[key] if isinstance(node[key], dict) else node)[new_key] = value
    try:
        scenario_from_dict(d)
    except EntmemError:
        pass


def test_unknown_top_level_key_rejected(baseline):
    d = scenario_to_dict(baseline)
    d["tuning_knob"] = 3
    with pytest.raises(ConfigurationError, match="unknown keys"):
        scenario_from_dict(d)


def test_unknown_nested_key_rejected(baseline):
    d = scenario_to_dict(baseline)
    d["eit"]["odd_field"] = 1.0
    with pytest.raises(ConfigurationError, match="unknown keys"):
        scenario_from_dict(d)


def test_missing_required_key_rejected(baseline):
    d = scenario_to_dict(baseline)
    del d["source"]["p_white"]
    with pytest.raises(ConfigurationError, match="missing required"):
        scenario_from_dict(d)


@pytest.mark.parametrize("key", [f.name for f in fields(AcquisitionTimes)])
def test_each_acquisition_time_is_required_when_the_object_is_given(baseline, key):
    d = scenario_to_dict(baseline)
    del d["settings"]["acquisition_s"][key]
    with pytest.raises(ConfigurationError) as info:
        scenario_from_dict(d)
    assert str(info.value) == f"missing required key {key!r} in scenario.settings.acquisition_s"
    del d["settings"]["acquisition_s"]
    assert scenario_from_dict(d).plan.acquisition_s == AcquisitionTimes()


def test_schema_version_checked(baseline):
    d = scenario_to_dict(baseline)
    d["schema_version"] = 99
    with pytest.raises(ConfigurationError, match="schema_version"):
        scenario_from_dict(d)


def test_storage_ordering_rejected_at_load(baseline):
    d = scenario_to_dict(baseline)
    d["timing"]["storage_time_ns"] = 1500.0
    with pytest.raises(ValidationError, match="fiber delay"):
        scenario_from_dict(d)


def test_auto_attenuator_resolves_to_balance(baseline):
    setting = baseline.resolved_attenuator()
    assert setting.t_h == pytest.approx(1 / np.sqrt(1.5), abs=1e-12)
    assert setting.balanced


def test_eta_f_auto_uses_anchor_table(baseline):
    d = scenario_to_dict(baseline)
    d["source"]["eta_f"] = "auto"
    d["source"]["two_photon_detuning"] = -30.0
    s = scenario_from_dict(d)
    assert s.source.eta_f == pytest.approx(np.arctan(np.sqrt(2.25)))


def test_eta_f_auto_outside_anchors_rejected(baseline):
    d = scenario_to_dict(baseline)
    d["source"]["eta_f"] = "auto"
    d["source"]["two_photon_detuning"] = -55.0
    with pytest.raises(ValidationError, match="anchor range"):
        scenario_from_dict(d)


def test_classicalize(baseline):
    c = classicalize(baseline)
    assert c.source.p_white == 1.0
    assert not c.correlations.pair_correlated
    assert c.correlations.g2_autocorr_s1 == 1.0
    assert c.correlations.g2_autocorr_s2_post == 1.0


def test_scenario_json_is_valid_json(baseline, tmp_path):
    path = tmp_path / "scn.json"
    save_scenario(baseline, path)
    data = json.loads(path.read_text())
    assert data["schema_version"] == 1
