import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import density_matrices
from entmem.detection import (
    CSV_HEADER,
    CountRecord,
    DetectorParams,
    G2StreamParams,
    LossBudget,
    MeasurementSetting,
    TimingConfig,
    coincidence_probs,
    expected_rates,
    g2_histogram,
    heralded_alpha,
    projection_probability,
    records_from_csv,
    records_to_csv,
    sample_counts,
    slot_g2,
    triple_coincidence_probs,
)
from entmem.errors import EstimationError, ValidationError
from entmem.qstate import TwoQubitState, bell_psi_plus, ket_d, ket_h, ket_v


IDEAL_LOSSES = LossBudget(1.0, 1.0, 1.0, 1.0, 1.0)
IDEAL_DET = DetectorParams(efficiency=1.0, dark_rate=0.0, dead_time=0.0, gate_width=8.0)
TIMING = TimingConfig()


def _setting(a, b, label=""):
    return MeasurementSetting(arm1_projector=a, arm2_projector=b, label=label)


class TestProjectionProbability:
    def test_bell_hv(self):
        assert projection_probability(bell_psi_plus(), _setting(ket_h(), ket_v())) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_bell_hh_forbidden(self):
        assert projection_probability(bell_psi_plus(), _setting(ket_h(), ket_h())) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_maximally_mixed_quarter(self):
        rho = TwoQubitState.maximally_mixed()
        assert projection_probability(rho, _setting(ket_d(), ket_v())) == pytest.approx(0.25)

    @given(density_matrices())
    @settings(max_examples=50, deadline=None)
    def test_complete_quadruple_sums_to_one(self, rho):
        total = sum(
            projection_probability(rho, _setting(a, b))
            for a in (ket_h(), ket_v())
            for b in (ket_h(), ket_v())
        )
        assert total == pytest.approx(1.0, abs=1e-10)


class TestExpectedRates:
    def test_lossless_bound(self):
        rates = expected_rates(
            1.0, 1.0, IDEAL_LOSSES, (IDEAL_DET, IDEAL_DET), TIMING, memory_eta=1.0
        )
        assert rates.r12 == pytest.approx(TIMING.pulse_rate, abs=1e-9)
        assert rates.r12 == pytest.approx(2.6e5)
        assert rates.r12_accidental == 0.0

    def test_no_source_no_counts(self):
        rates = expected_rates(
            0.0, 0.5, IDEAL_LOSSES, (IDEAL_DET, IDEAL_DET), TIMING
        )
        assert rates.r12 == 0.0

    def test_loss_budget_product_oracle(self):
        losses = LossBudget()
        d1 = DetectorParams(efficiency=0.10, gate_width=8.0)
        d2 = DetectorParams(efficiency=0.50, gate_width=8.0)
        eta = 0.06
        full = expected_rates(0.01, 0.25, losses, (d1, d2), TIMING, memory_eta=eta)
        lossless = expected_rates(
            0.01, 0.25, IDEAL_LOSSES, (IDEAL_DET, IDEAL_DET), TIMING, memory_eta=1.0
        )
        expected_factor = (
            losses.arm1_transmission() * 0.10 * losses.arm2_transmission() * 0.50 * eta
        )
        assert full.r12_true / lossless.r12_true == pytest.approx(expected_factor, rel=1e-12)

    def test_background_raises_singles_and_accidentals(self):
        base = expected_rates(0.01, 0.25, LossBudget(), (IDEAL_DET, IDEAL_DET), TIMING)
        noisy = expected_rates(
            0.01, 0.25, LossBudget(), (IDEAL_DET, IDEAL_DET), TIMING, background_rate_2=500.0
        )
        assert noisy.r2 > base.r2
        assert noisy.r12_accidental > base.r12_accidental
        assert noisy.r12_true == base.r12_true

    def test_marginals_below_joint_rejected(self):
        with pytest.raises(ValidationError):
            expected_rates(
                0.01, 0.5, LossBudget(), (IDEAL_DET, IDEAL_DET), TIMING, prob1=0.25
            )


class TestSampleCounts:
    def test_zero_rate_zero_counts(self):
        from entmem.detection import ExpectedRates

        rec = sample_counts(ExpectedRates(0, 0, 0, 0, 0), 10.0, seed=1, setting_label="z")
        assert rec.singles_1 == rec.singles_2 == rec.coincidences == rec.triples == 0

    def test_seed_determinism(self):
        rates = expected_rates(0.01, 0.25, LossBudget(), (IDEAL_DET, IDEAL_DET), TIMING)
        a = sample_counts(rates, 30.0, seed=42, setting_label="HH")
        b = sample_counts(rates, 30.0, seed=42, setting_label="HH")
        assert a == b
        c = sample_counts(rates, 30.0, seed=43, setting_label="HH")
        assert c != a  # overwhelmingly likely

    def test_poisson_tail_bound(self):
        # mean 1e6 samples stay within 5 sigma for 1000 seeds
        from entmem.detection import ExpectedRates

        mean = 1e6
        rates = ExpectedRates(r1=mean, r2=mean, r12=0.0, r12_true=0.0, r12_accidental=0.0)
        hits = 0
        for seed in range(1000):
            rec = sample_counts(rates, 1.0, seed=seed)
            if abs(rec.singles_1 - mean) > 5 * np.sqrt(mean):
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
        from entmem.detection import ExpectedRates

        r12 = min(r12, r1, r2) if min(r1, r2) > 0 else 0.0
        rates = ExpectedRates(r1=r1, r2=r2, r12=r12, r12_true=r12, r12_accidental=0.0, r123=r12 / 10)
        rec = sample_counts(rates, 3.0, seed=seed)
        assert rec.coincidences <= min(rec.singles_1, rec.singles_2)
        assert rec.triples <= rec.coincidences

    def test_record_invariants_over_1e4_random_scenarios(self):
        from entmem.detection import ExpectedRates

        rng = np.random.default_rng(44)
        for k in range(10_000):
            r1, r2 = rng.uniform(0, 1e4, 2)
            r12 = rng.uniform(0, min(r1, r2) + 1.0)
            rates = ExpectedRates(
                r1=r1, r2=r2, r12=r12, r12_true=r12, r12_accidental=0.0, r123=r12 * 0.2
            )
            rec = sample_counts(rates, float(rng.uniform(0.1, 5.0)), seed=k)
            assert rec.coincidences <= min(rec.singles_1, rec.singles_2)
            assert rec.triples <= rec.coincidences
            assert min(rec.singles_1, rec.singles_2, rec.coincidences, rec.triples) >= 0

    def test_invalid_acquisition_rejected(self):
        from entmem.detection import ExpectedRates

        with pytest.raises(ValidationError):
            sample_counts(ExpectedRates(1, 1, 1, 1, 0), 0.0, seed=0)


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


class TestPairStatistics:
    def test_slot_g2_decreases_with_noise(self):
        vals = [slot_g2(0.007, 0.06, 0.15, 0.0, b) for b in (0.0, 1e-4, 1e-3, 1e-2)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_slot_g2_roughly_inverse_pair_prob(self):
        assert slot_g2(0.01, 0.06, 0.15) == pytest.approx(1.0 / 0.01, rel=0.1)

    def test_perfect_single_photon_alpha_zero(self):
        # no double pairs possible when enumeration is truncated by zero noise
        p1, p12, p13, p123 = triple_coincidence_probs(1e-9, 0.5, 0.5)
        alpha = heralded_alpha(p1, p12, p13, p123)
        assert alpha < 1e-6

    def test_alpha_scales_as_4p(self):
        # double-pair emissions at p^2 give alpha ~= 4p, up to O(p) and
        # multi-click corrections from the exact enumeration
        p = 0.005
        p1, p12, p13, p123 = triple_coincidence_probs(p, 0.06, 0.15)
        assert heralded_alpha(p1, p12, p13, p123) == pytest.approx(4 * p, rel=0.10)

    def test_bunched_noise_raises_alpha(self):
        args = dict(pair_prob=0.007, eff1=0.06, eff2=0.009, noise2_port=5e-4)
        a1 = heralded_alpha(*triple_coincidence_probs(**args, noise_bunching=1.0))
        a2 = heralded_alpha(*triple_coincidence_probs(**args, noise_bunching=2.0))
        assert a2 > a1

    def test_heralded_alpha_validation(self):
        with pytest.raises(EstimationError):
            heralded_alpha(10.0, 0.0, 5.0, 1.0)


class TestG2Histogram:
    def _params(self, pair=1e-4, s1=1e-3, s2=1e-3):
        return G2StreamParams(
            n_slots=2_000_000,
            slot_ns=500.0,
            pair_prob_detected=pair,
            singles1_prob=s1,
            singles2_prob=s2,
            delay_ns=1100.0,
            profile_fwhm_ns=7.0,
        )

    def test_peak_location_within_one_bin(self):
        edges = np.arange(850.0, 1352.0, 2.0)
        hist = g2_histogram(self._params(), edges, seed=5)
        assert abs(hist.peak_tau_ns - 1100.0) <= 2.0

    def test_pure_signal_off_peak_flagged_as_one(self):
        params = G2StreamParams(
            n_slots=100_000,
            slot_ns=500.0,
            pair_prob_detected=1e-3,
            singles1_prob=0.0,
            singles2_prob=0.0,
            delay_ns=1100.0,
            profile_fwhm_ns=7.0,
        )
        edges = np.arange(850.0, 1352.0, 2.0)
        hist = g2_histogram(params, edges, seed=5)
        off_peak = np.abs(hist.tau_ns - 1100.0) > 30.0
        assert np.all(hist.zero_floor)
        assert np.all(hist.g2[off_peak & (hist.counts == 0)] == 1.0)

    def test_slot_aggregated_peak_matches_model(self):
        pair, s1, s2 = 2e-4, 1e-3, 2e-3
        params = G2StreamParams(
            n_slots=20_000_000,
            slot_ns=500.0,
            pair_prob_detected=pair,
            singles1_prob=s1,
            singles2_prob=s2,
            delay_ns=1100.0,
            profile_fwhm_ns=7.0,
        )
        hist = g2_histogram(params, np.arange(850.0, 1352.0, 2.0), seed=11)
        expected = 1.0 + pair / (s1 * s2)
        assert hist.peak_g2 == pytest.approx(expected, rel=0.05)

    def test_peak_decreases_with_background(self):
        peaks = []
        for s2 in (1e-3, 2e-3, 4e-3, 8e-3):
            hist = g2_histogram(
                self._params(2e-4, 1e-3, s2), np.arange(850.0, 1352.0, 2.0), seed=3
            )
            peaks.append(hist.peak_g2)
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_empty_stream_raises_with_counts(self):
        params = G2StreamParams(
            n_slots=10,
            slot_ns=500.0,
            pair_prob_detected=0.0,
            singles1_prob=0.0,
            singles2_prob=0.0,
            delay_ns=1100.0,
            profile_fwhm_ns=7.0,
        )
        with pytest.raises(EstimationError, match="0 coincidences"):
            g2_histogram(params, np.arange(850.0, 1352.0, 2.0), seed=1)

    def test_grid_must_cover_wavepacket(self):
        with pytest.raises(ValidationError):
            g2_histogram(self._params(), np.arange(0.0, 100.0, 2.0), seed=1)

    def test_seed_determinism(self):
        edges = np.arange(850.0, 1352.0, 2.0)
        a = g2_histogram(self._params(), edges, seed=9)
        b = g2_histogram(self._params(), edges, seed=9)
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
        settings_list = [
            _setting(a, b, lbl)
            for (a, b, lbl) in [
                (ket_h(), ket_h(), "HH"),
                (ket_h(), ket_v(), "HV"),
                (ket_v(), ket_h(), "VH"),
                (ket_v(), ket_v(), "VV"),
            ]
        ]
        probs = [projection_probability(rho, s) for s in settings_list]
        total = 2_000_000
        counts = []
        for s, p in zip(settings_list, probs):
            from entmem.detection import ExpectedRates

            rates = ExpectedRates(r1=total, r2=total, r12=p * total, r12_true=p * total, r12_accidental=0)
            counts.append(sample_counts(rates, 1.0, seed=123, setting_label=s.label).coincidences)
        n = sum(counts)
        for c, p in zip(counts, probs):
            if p == 0:
                assert c == 0
            else:
                sigma = np.sqrt(p * total)
                assert abs(c - p * total) < 3 * sigma
