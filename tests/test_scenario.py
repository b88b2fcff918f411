import copy
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entmem.scenario
from entmem.cli import main
from entmem.detection import TimingConfig
from entmem.errors import ConfigurationError, EntmemError, ValidationError
from entmem.interferometer import AttenuatorSetting
from entmem.scenario import (
    bundled_scenario_path,
    classicalize,
    load_bundled_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

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
    # from TimingConfig alone, as they would for a newly added field.
    assert "pump1_fwhm_ns" not in Path(entmem.scenario.__file__).read_text()
    d = scenario_to_dict(baseline)
    d["timing"]["pump1_fwhm_ns"] = 25.0
    s = scenario_from_dict(d)
    assert s.timing.pump1_fwhm_ns == 25.0
    assert scenario_to_dict(s)["timing"]["pump1_fwhm_ns"] == 25.0
    del d["timing"]["pump1_fwhm_ns"]
    assert scenario_from_dict(d).timing.pump1_fwhm_ns == TimingConfig.pump1_fwhm_ns


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
    (("settings", "error_bars"), 1),
    (("settings", "acquisition_s", "g2"), float("nan")),
    (("settings", "chsh_angles"), [0.0, 0.1, 0.2]),
    (("source", "tan2_eta_anchors"), [[-30.0, float("nan")]]),
    (("eit", "probe_grid_mhz"), [-60.0, 60.0, 10**7]),
    (("timing", "cycles_per_duty"), 10**400),
    (("notes",), [1]),
    (("attenuator",), None),
]


@pytest.mark.parametrize(
    "path, value", BAD_VALUES, ids=[f"{'.'.join(p)}={v!r:.12}" for p, v in BAD_VALUES]
)
def test_bad_values_exit_2(tmp_path, path, value):
    d = copy.deepcopy(BUNDLED)
    *parents, key = path
    node = d
    for part in parents:
        node = node[part]
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert main(["--scenario", str(bad), "--out", str(tmp_path), "eit"]) == 2


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
