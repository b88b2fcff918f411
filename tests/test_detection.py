from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entmem.pipeline as pipeline
from conftest import density_matrices, float_bits, maximally_mixed, random_density_matrix
from entmem.detection import (
    CSV_HEADER,
    CountRecord,
    DetectorParams,
    Detectors,
    ExpectedRates,
    LossBudget,
    TimingConfig,
    born_probabilities,
    click_probs,
    count_means,
    draw_counts,
    expected_counts,
    g2_histogram,
    heralded_alpha,
    records_from_csv,
    records_to_csv,
    sample_counts,
    single_photon_like,
)
from entmem.errors import EstimationError, ValidationError
from entmem.estimators import TOMO_SETTINGS, chsh_settings, fringe_settings
from entmem.experiment import model_rates, stage_state
from entmem.memory import MemoryNoiseParams, apply_memory
from entmem.qstate import KETS, bell_psi_plus, ket, physical, reduced_signal1, reduced_signal2
from entmem.rng import derive_rng
from entmem.scenario import MeasurementPlan, load_bundled_scenario


IDEAL_LOSSES = LossBudget(1.0, 1.0, 1.0, 1.0, 1.0)
IDEAL_DET = DetectorParams(efficiency=1.0, dark_rate=0.0, dead_time=0.0, gate_width=8.0)
IDEAL_DETECTORS = Detectors(IDEAL_DET, IDEAL_DET)
TIMING = TimingConfig()


def _design(pairs, labels=None):
    """The design (labels, arm1, arm2) of (arm-1 ket, arm-2 ket) pairs, unlabeled by default."""
    arm1, arm2 = (np.array([pair[i] for pair in pairs]).reshape(-1, 2) for i in (0, 1))
    return tuple(labels or [""] * len(pairs)), arm1, arm2


def _joint_probability(rho, a, b) -> float:
    """The Born probability of the one setting (a, b), through the stacked kernel."""
    (p,) = born_probabilities(rho, _design([(a, b)]))[0]
    return p


class TestProjectionProbability:
    def test_bell_hv(self):
        assert _joint_probability(bell_psi_plus(), KETS["H"], KETS["V"]) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_bell_hh_forbidden(self):
        assert _joint_probability(bell_psi_plus(), KETS["H"], KETS["H"]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_maximally_mixed_quarter(self):
        rho = maximally_mixed()
        assert _joint_probability(rho, KETS["D"], KETS["V"]) == pytest.approx(0.25)

    @given(density_matrices())
    @settings(max_examples=50, deadline=None)
    def test_complete_quadruple_sums_to_one(self, rho):
        quadruple = _design([(KETS[a], KETS[b]) for a in "HV" for b in "HV"])
        total = sum(born_probabilities(rho, quadruple)[0])
        assert total == pytest.approx(1.0, abs=1e-10)


def _reference_probability(m: np.ndarray, v: np.ndarray) -> float:
    """One Born probability the one-setting way: Re<v|m|v> by vdot, clamped into [0, 1]."""
    p = float(np.real(np.vdot(v, m @ v)))
    return min(max(p, 0.0), 1.0)


def _kets(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.array([ket(*(rng.normal(size=2) + 1j * rng.normal(size=2))) for _ in range(n)])


class TestBornProbabilities:
    @given(
        density_matrices(),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_the_one_setting_reference_bit_for_bit(self, rho, seed, n):
        design = _design(list(zip(_kets(seed, n), _kets(seed + 1, n))))
        joint, arm1, arm2 = born_probabilities(rho, design)
        reduced1, reduced2 = reduced_signal1(rho), reduced_signal2(rho)
        for k, (v1, v2) in enumerate(zip(*design[1:])):
            assert joint[k] == _reference_probability(rho, np.kron(v1, v2))
            assert arm1[k] == _reference_probability(reduced1, v1)
            assert arm2[k] == _reference_probability(reduced2, v2)

    def test_clamped_into_unit_interval(self):
        # an unphysical matrix (bypassing validation) gives out-of-range Re<k|M|k>
        rho = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)
        hh_hv = _design([(KETS["H"], KETS["H"]), (KETS["H"], KETS["V"])])
        joint, arm1, _ = born_probabilities(rho, hh_hv)
        assert joint.tolist() == [1.0, 0.0]
        assert arm1.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("size", [1, 7, 50])
    def test_stacked_kernels_equal_each_state_bit_for_bit(self, size):
        """born_probabilities of the tomography, CHSH and fringe designs, the reduced states and
        the memory channel give on each state of a stack that state's own result, bit for bit."""
        rng = np.random.default_rng(size)
        stack = physical([random_density_matrix(rng, int(rng.integers(1, 5))) for _ in range(size)])
        plan = MeasurementPlan()
        designs = (
            TOMO_SETTINGS.settings,
            chsh_settings(plan.chsh_angles),
            fringe_settings(plan.visibility_arm1, plan.visibility_thetas),
        )
        for design in designs:
            stacked = born_probabilities(stack, design)
            assert [p.shape for p in stacked] == [(size, len(design[0]))] * 3
            for k, rho in enumerate(stack):
                for got, want in zip(stacked, born_probabilities(rho, design)):
                    assert got[k].tobytes() == want.tobytes()
        noise = MemoryNoiseParams(p_depol=0.3)
        for kernel in (reduced_signal1, reduced_signal2, lambda rho: apply_memory(rho, noise)):
            stacked = kernel(stack)
            assert len(stacked) == size
            for k, rho in enumerate(stack):
                assert stacked[k].tobytes() == kernel(rho).tobytes()


def _lossless(scenario):
    return replace(scenario, losses=IDEAL_LOSSES, detectors=IDEAL_DETECTORS)


class TestExpectedRates:
    def test_lossless_bound(self):
        # pure source state, ideal detectors and an ideal loss budget: every
        # pair gives one coincidence, in the HV or the VH port
        scenario = _lossless(load_bundled_scenario())
        scenario = replace(scenario, source=replace(scenario.source, p_white=0.0))
        settings = _design([(KETS["H"], KETS["V"]), (KETS["V"], KETS["H"])])
        rates = model_rates(stage_state(scenario, "pre_storage"), settings)
        pairs = scenario.timing.pulse_rate * scenario.source.pair_prob
        assert sum(rates.r12) == pytest.approx(pairs, rel=1e-12)
        assert pairs == pytest.approx(2.6e5 * scenario.source.pair_prob)
        assert rates.r12_accidental.tolist() == [0.0, 0.0]

    def test_loss_budget_product_oracle(self):
        # no depolarization: the stored state equals the pre-storage state
        base = replace(load_bundled_scenario(), mem_noise=MemoryNoiseParams())
        losses = LossBudget()
        d1 = DetectorParams(efficiency=0.10, gate_width=8.0)
        d2 = DetectorParams(efficiency=0.50, gate_width=8.0)
        lossy = replace(base, losses=losses, detectors=Detectors(d1, d2))
        stage = stage_state(lossy, "post_storage")
        assert 0.0 < stage.eta < 1.0
        settings = _design([(KETS["H"], KETS["V"])])
        full = model_rates(stage, settings)
        lossless = model_rates(stage_state(_lossless(base), "pre_storage"), settings)
        expected_factor = (
            losses.arm1_transmission() * 0.10 * losses.arm2_transmission() * 0.50 * stage.eta
        )
        assert full.r12_true[0] / lossless.r12_true[0] == pytest.approx(expected_factor, rel=1e-12)

    def test_background_raises_singles_and_accidentals(self):
        scenario = replace(load_bundled_scenario(), losses=LossBudget(), detectors=IDEAL_DETECTORS)

        def rates(background_rate_2):
            flux = background_rate_2 / scenario.timing.pulse_rate
            s = replace(scenario, mem_noise=replace(scenario.mem_noise, background_flux=flux))
            return model_rates(stage_state(s, "post_storage"), _design([(KETS["H"], KETS["V"])]))

        base, noisy = rates(0.0), rates(500.0)
        assert noisy.r2[0] > base.r2[0]
        assert noisy.r12_accidental[0] > base.r12_accidental[0]
        assert noisy.r12_true[0] == base.r12_true[0]


def _simulated_record(r1, r2, r12, acquisition_s, seed):
    """The record pipeline._simulate_records builds when the model gives these rates."""
    rates = ExpectedRates(*(np.array([r]) for r in (r1, r2, r12, r12, 0.0)))
    plan = SimpleNamespace(acquisition_s=SimpleNamespace(tomo_pre=acquisition_s))
    stage = SimpleNamespace(scenario=SimpleNamespace(plan=plan, master_seed=seed), suffix="pre")
    with mock.patch.object(pipeline, "model_rates", lambda stage, settings: rates):
        design = _design([(KETS["H"], KETS["V"])])
        (rec,) = pipeline._simulate_records(stage, "poisson", "tomo", design)
    return rec


class TestSampleCounts:
    def test_zero_rate_zero_counts(self):
        assert sample_counts([[0.0, 0.0, 0.0]], seed=1, labels=["z"]) == [[0, 0, 0]]

    def test_seed_determinism(self):
        stage = stage_state(load_bundled_scenario(), "pre_storage")
        rates = model_rates(stage, _design([(KETS["H"], KETS["V"])], ["HV"]))
        means = count_means((rates.r1[0], rates.r2[0], rates.r12[0]), 30.0, 30.0, "HH")
        a = sample_counts([means], seed=42, labels=["HH"])
        b = sample_counts([means], seed=42, labels=["HH"])
        assert a == b
        c = sample_counts([means], seed=43, labels=["HH"])
        assert c != a  # overwhelmingly likely

    def test_poisson_tail_bound(self):
        # mean 1e6 samples stay within 5 sigma for 1000 seeds
        mean = 1e6
        hits = 0
        for seed in range(1000):
            ((singles_1, _, _),) = sample_counts([[mean, mean, 0.0]], seed=seed, labels=[""])
            if abs(singles_1 - mean) > 5 * np.sqrt(mean):
                hits += 1
        assert hits == 0

    @given(
        st.floats(0.0, 1e4),
        st.floats(0.0, 1e4),
        st.floats(0.0, 50.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_record_invariants_always_hold(self, r1, r2, r12, seed):
        r12 = min(r12, r1, r2) if min(r1, r2) > 0 else 0.0
        rec = _simulated_record(r1, r2, r12, 3.0, seed)
        assert rec.coincidences <= min(rec.singles_1, rec.singles_2)
        assert rec.triples <= rec.coincidences

    def test_record_invariants_over_1e4_random_scenarios(self):
        rng = np.random.default_rng(44)
        for k in range(10_000):
            r1, r2 = rng.uniform(0, 1e4, 2)
            r12 = rng.uniform(0, min(r1, r2) + 1.0)
            rec = _simulated_record(r1, r2, r12, float(rng.uniform(0.1, 5.0)), k)
            assert rec.coincidences <= min(rec.singles_1, rec.singles_2)
            assert rec.triples <= rec.coincidences
            assert min(rec.singles_1, rec.singles_2, rec.coincidences, rec.triples) >= 0

    def test_invalid_acquisition_rejected(self):
        with pytest.raises(ValidationError):
            count_means((1, 1, 1), 0.0, 0.0, "")


class TestDrawCounts:
    def test_expected_mode_rounds_and_carries_seed_zero(self):
        assert draw_counts([[0.4, 2.6, 7.0]], "expected", 99, ["x"]) == ([[0, 3, 7]], 0)
        assert expected_counts([[0.4, 2.6, 7.0]]) == [[0, 3, 7]]

    def test_poisson_mode_draws_at_the_label_and_carries_the_seed(self):
        rows = [[1e3, 2e3, 50.0], [4.0, 5.0, 0.5]]
        drawn = sample_counts(rows, 99, ["x", "y"])
        assert draw_counts(rows, "poisson", 99, ["x", "y"]) == (drawn, 99)
        assert drawn == [
            derive_rng(99, "counts", label).poisson(row).tolist() for label, row in zip("xy", rows)
        ]
        assert sample_counts(rows[:1], 99, ["x"]) != sample_counts(rows[:1], 99, ["y"])


class TestSinglePhotonLike:
    def test_needs_the_triples_that_alpha_half_predicts(self):
        # alpha = 0.5 predicts 0.5 * n12 * n13 / n1 triples: 3.0, then 2.95
        resolved = {"n1": 600, "n12": 60, "n13": 60, "n123": 0}
        assert single_photon_like(0.0, resolved)
        assert not single_photon_like(0.5, resolved)
        assert not single_photon_like(0.0, {**resolved, "n13": 59})

    def test_no_herald_clicks_is_not_single_photon_like(self):
        assert not single_photon_like(0.0, {"n1": 0, "n12": 0, "n13": 0, "n123": 0})


class TestCountRecordCsv:
    def test_round_trip(self):
        recs = [
            CountRecord("HH", 1000, 2000, 500, 5, 60.0, 7),
            CountRecord("chsh:00:pp", 10, 10, 3, 0, 1.5, 8),
        ]
        back = records_from_csv(records_to_csv(recs))
        assert back == recs

    def test_header_enforced(self):
        with pytest.raises(ValidationError):
            records_from_csv("a,b,c\n1,2,3\n")

    def test_invariant_enforced_on_parse(self):
        bad = "setting_label,singles_1,singles_2,coincidences,triples,acquisition_s,seed\nX,1,1,5,0,1.0,0\n"
        with pytest.raises(ValidationError):
            records_from_csv(bad)

    def test_quoted_labels_and_crlf_parse_like_plain(self):
        recs = [
            CountRecord("HH", 1000, 2000, 500, 5, 60.0, 7),
            CountRecord("chsh:00:pp", 10, 10, 3, 0, 1.5, 8),
        ]
        header, *rows = records_to_csv(recs).splitlines()
        quoted = [header, *('"{}",{}'.format(*row.split(",", 1)) for row in rows)]
        assert records_from_csv("\r\n".join(quoted) + "\r\n") == recs

    def test_csv_parser_error_is_validation_error(self):
        text = CSV_HEADER + '\n"' + "x" * 200_000 + '",1,1,0,0,1.0,0\n'
        with pytest.raises(ValidationError, match="unreadable count CSV"):
            records_from_csv(text)


def _slot_g2(pair_prob, eff1, eff2, dark1=0.0, noise2=0.0):
    p1, p2, p12, _ = click_probs(pair_prob, eff1, eff2, dark1, noise2)
    return p12 / (p1 * p2)


def _alpha(pair_prob, eff1, eff2, noise2_port=0.0, noise_bunching=1.0):
    """Heralded alpha with arm 2 (total efficiency eff2) split onto two ports."""
    p1, _, p12, p123 = click_probs(pair_prob, eff1, eff2 / 2.0, 0.0, noise2_port, noise_bunching)
    return heralded_alpha(p1, p12, p12, p123)


class TestPairStatistics:
    def test_slot_g2_decreases_with_noise(self):
        vals = [_slot_g2(0.007, 0.06, 0.15, 0.0, b) for b in (0.0, 1e-4, 1e-3, 1e-2)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_slot_g2_roughly_inverse_pair_prob(self):
        assert _slot_g2(0.01, 0.06, 0.15) == pytest.approx(1.0 / 0.01, rel=0.1)

    def test_perfect_single_photon_alpha_zero(self):
        # no double pairs possible when enumeration is truncated by zero noise
        assert _alpha(1e-9, 0.5, 0.5) < 1e-6

    def test_alpha_scales_as_4p(self):
        # double-pair emissions at p^2 give alpha ~= 4p, up to O(p) and
        # multi-click corrections from the exact enumeration
        p = 0.005
        assert _alpha(p, 0.06, 0.15) == pytest.approx(4 * p, rel=0.10)

    def test_bunched_noise_raises_alpha(self):
        args = dict(pair_prob=0.007, eff1=0.06, eff2=0.009, noise2_port=5e-4)
        assert _alpha(**args, noise_bunching=2.0) > _alpha(**args, noise_bunching=1.0)

    def test_heralded_alpha_validation(self):
        with pytest.raises(EstimationError):
            heralded_alpha(10.0, 0.0, 5.0, 1.0)

    @pytest.mark.parametrize(
        "args", [(0.5, 0.1, 0.1, 0.0, 0.0), (-1e-3, 0.1, 0.1, 0.0, 0.0), (0.01, 0.1, 0.1, 0.0, 0.0, 0.9)]
    )
    def test_invalid_arguments_rejected(self, args):
        with pytest.raises(ValidationError):
            click_probs(*args)

    @given(
        st.floats(0.0, 0.4999),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.5),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(1.0, 10.0),
    )
    @settings(max_examples=500, deadline=None)
    @example(0.43, 0.0, 0.1, 1.0, 0.0, 1.0)  # the pair weights sum to 1 + 2**-52
    @example(0.25, 0.0, 1e-9, 1.0, 0.0, 1.0)  # P123 cancels to about -4e-17
    def test_probabilities_bounded_and_ordered(
        self, pair_prob, eff1, eff2, dark1, noise2, noise_bunching
    ):
        p1, p2, p12, p123 = click_probs(pair_prob, eff1, eff2, dark1, noise2, noise_bunching)
        assert all(0.0 <= p <= 1.0 for p in (p1, p2, p12, p123))
        assert p12 <= min(p1, p2)
        assert p123 <= p12

    @given(
        st.floats(0.0, 0.4999),
        st.lists(
            st.tuples(*(st.floats(0.0, hi) for hi in (1.0, 0.5, 1.0, 1.0))),
            min_size=1,
            max_size=12,
        ),
        st.sets(st.integers(0, 3), min_size=1),
        st.floats(1.0, 10.0),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    # numpy's ** 2 squares an array; on these the square and libm's pow differ in P123's last bit
    @example(0.01, [(0.5, 0.38147033499464283, 1e-4, 1e-3), (0.5, 0.1, 1e-4, 1e-3)], {1}, 2.0, True)
    @example(0.01, [(0.5, 0.4982334973255076, 1e-4, 1e-3), (0.5, 0.1, 1e-4, 1e-3)], {1}, 2.0, False)
    def test_arrays_give_each_element_the_bits_of_its_float_call(
        self, pair_prob, rows, stacked, noise_bunching, pair_correlated
    ):
        """eff1, eff2, dark1 and noise2 (those whose index is in stacked) as (T,) arrays."""
        rows = [tuple(r[i] if i in stacked else rows[0][i] for i in range(4)) for r in rows]
        alone = [click_probs(pair_prob, *r, noise_bunching, pair_correlated) for r in rows]
        assert all(type(p) is float for probs in alone for p in probs)
        args = [np.array(col) if i in stacked else col[0] for i, col in enumerate(zip(*rows))]
        probs = click_probs(pair_prob, *args, noise_bunching, pair_correlated)
        for k, values in enumerate(probs):
            values = np.broadcast_to(values, len(rows))
            assert float_bits(values) == float_bits([one[k] for one in alone])


class TestG2Histogram:
    @staticmethod
    def _hist(pair=1e-4, s1=1e-3, s2=1e-3, n_slots=2_000_000, seed=5):
        return g2_histogram(n_slots, 500.0, (s1, s2, pair), 1100.0, 7.0, seed)

    def test_peak_location_within_one_bin(self):
        hist = self._hist()
        assert abs(hist.peak_tau_ns - 1100.0) <= 2.0

    @pytest.mark.parametrize("stage", ["pre_storage", "post_storage"])
    def test_bins_span_one_slot_around_the_bundled_delay(self, stage):
        view = stage_state(load_bundled_scenario(), stage)
        slot, delay = view.scenario.timing.cycle_period_ns, view.delay_ns
        edges = np.arange(delay - slot / 2, delay + slot / 2 + 2.0, 2.0)
        hist = pipeline.simulate_g2(view)
        assert np.array_equal(hist.tau_ns, 0.5 * (edges[:-1] + edges[1:]))

    def test_pure_signal_off_peak_flagged_as_one(self):
        hist = self._hist(pair=1e-3, s1=0.0, s2=0.0, n_slots=100_000)
        off_peak = np.abs(hist.tau_ns - 1100.0) > 30.0
        assert np.all(hist.zero_floor)
        assert np.all(hist.g2[off_peak & (hist.counts == 0)] == 1.0)

    def test_slot_aggregated_peak_matches_model(self):
        pair, s1, s2 = 2e-4, 1e-3, 2e-3
        hist = self._hist(pair, s1, s2, n_slots=20_000_000, seed=11)
        expected = 1.0 + pair / (s1 * s2)
        assert hist.peak_g2 == pytest.approx(expected, rel=0.05)

    def test_peak_counts_are_the_slot_window_sum(self):
        hist = self._hist()
        window = np.abs(hist.tau_ns - hist.peak_tau_ns) <= 500.0 / 2
        assert hist.peak_counts == hist.counts[window].sum() > 0
        assert hist.peak_g2 == hist.peak_counts / (1e-3 * 1e-3 * 2_000_000)

    def test_peak_decreases_with_background(self):
        peaks = [self._hist(2e-4, 1e-3, s2, seed=3).peak_g2 for s2 in (1e-3, 2e-3, 4e-3, 8e-3)]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_empty_stream_raises_with_counts(self):
        with pytest.raises(EstimationError, match="0 coincidences"):
            self._hist(pair=0.0, s1=0.0, s2=0.0, n_slots=10, seed=1)

    def test_seed_determinism(self):
        a, b = self._hist(seed=9), self._hist(seed=9)
        assert np.array_equal(a.counts, b.counts)
        assert a.peak_g2 == b.peak_g2


class TestTimingConfig:
    def test_storage_must_precede_fiber_arrival(self):
        with pytest.raises(ValidationError):
            TimingConfig(storage_time_ns=1200.0, fiber_delay_ns=1000.0)

    def test_cycles_must_fit_duty_window(self):
        with pytest.raises(ValidationError):
            TimingConfig(cycles_per_duty=3000, cycle_period_ns=500.0, duty_window_ms=1.3)

    def test_pulse_rate(self):
        assert TimingConfig().pulse_rate == pytest.approx(2.6e5)


class TestLawOfLargeNumbers:
    def test_coincidence_fractions_converge_to_born_rule(self):
        rho = bell_psi_plus()
        labels = ["HH", "HV", "VH", "VV"]
        design = _design([(KETS[a], KETS[b]) for a, b in labels], labels)
        probs = born_probabilities(rho, design)[0]
        total = 2_000_000
        rows = [[total, total, p * total] for p in probs]
        counts = [row[2] for row in sample_counts(rows, seed=123, labels=labels)]
        n = sum(counts)
        for c, p in zip(counts, probs):
            if p == 0:
                assert c == 0
            else:
                sigma = np.sqrt(p * total)
                assert abs(c - p * total) < 3 * sigma
