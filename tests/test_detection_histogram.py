"""Enhanced histogram detector: Eq. 10-12 behaviour, updates, edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.detection import HistogramConfig, HistogramDetector


def gaussian_blob(n=200, d=4, seed=0, center=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    return center + scale * rng.standard_normal((n, d))


class TestConfig:
    def test_defaults_valid(self):
        HistogramConfig()

    def test_tau_ordering_enforced(self):
        with pytest.raises(ValueError, match="tau_lower"):
            HistogramConfig(tau_upper=0.1, tau_lower=0.2)

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            HistogramConfig(num_bins=0)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            HistogramConfig(temperature=0.0)

    def test_negative_smoothing(self):
        with pytest.raises(ValueError):
            HistogramConfig(smoothing_passes=-1)


class TestFitAndScore:
    def test_training_scores_in_unit_interval(self):
        detector = HistogramDetector().fit(gaussian_blob())
        scores = detector.normalized_scores(gaussian_blob())
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_far_outlier_scores_high(self):
        detector = HistogramDetector().fit(gaussian_blob())
        outlier = np.full((1, 4), 100.0)
        assert detector.normalized_scores(outlier)[0] == pytest.approx(1.0)
        assert detector.is_outlier(outlier)[0]

    def test_center_point_scores_low(self):
        detector = HistogramDetector().fit(gaussian_blob(n=500))
        center = np.zeros((1, 4))
        assert detector.normalized_scores(center)[0] < 0.4
        assert not detector.is_outlier(center)[0]

    def test_enhanced_scores_are_sigmoid_of_normalized(self):
        detector = HistogramDetector().fit(gaussian_blob())
        x = gaussian_blob(n=10, seed=5)
        normalized = detector.normalized_scores(x)
        enhanced = detector.enhanced_scores(x)
        expected = 1.0 / (1.0 + np.exp(-(2 * normalized - 1) / detector.config.temperature))
        np.testing.assert_allclose(enhanced, expected, atol=1e-12)

    def test_enhanced_monotone_in_normalized(self):
        detector = HistogramDetector().fit(gaussian_blob())
        x = gaussian_blob(n=50, seed=7)
        normalized = detector.normalized_scores(x)
        enhanced = detector.enhanced_scores(x)
        order = np.argsort(normalized)
        assert (np.diff(enhanced[order]) >= -1e-12).all()

    def test_single_sample_training(self):
        detector = HistogramDetector().fit(np.zeros((1, 3)))
        assert detector.num_samples == 1
        # The training point itself is not an outlier.
        assert not detector.is_outlier(np.zeros((1, 3)))[0]

    def test_constant_dimension_handled(self):
        data = gaussian_blob()
        data[:, 0] = 5.0  # degenerate dim
        detector = HistogramDetector().fit(data)
        assert np.isfinite(detector.decision_scores(data)).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HistogramDetector().fit(np.empty((0, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            HistogramDetector().fit(np.array([[np.nan, 1.0]]))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            HistogramDetector().decision_scores(np.zeros((1, 2)))


class TestPlainMode:
    def test_plain_uses_contamination_threshold(self):
        config = HistogramConfig(enhanced=False, contamination=0.1)
        detector = HistogramDetector(config).fit(gaussian_blob(n=300))
        flagged = detector.is_outlier(gaussian_blob(n=300)).mean()
        assert 0.02 < flagged < 0.35

    def test_plain_never_confident(self):
        config = HistogramConfig(enhanced=False)
        detector = HistogramDetector(config).fit(gaussian_blob())
        assert not detector.is_confident_inlier(np.zeros((5, 4))).any()

    def test_plain_decision_scores_are_normalized(self):
        config = HistogramConfig(enhanced=False)
        detector = HistogramDetector(config).fit(gaussian_blob())
        x = gaussian_blob(n=10, seed=3)
        np.testing.assert_allclose(detector.decision_scores(x), detector.normalized_scores(x))


class TestOnlineUpdate:
    def test_update_absorbs_samples(self):
        detector = HistogramDetector().fit(gaussian_blob(n=100))
        detector.update(gaussian_blob(n=20, seed=1))
        assert detector.num_samples == 120
        assert detector.num_updates == 20

    def test_update_single_vector(self):
        detector = HistogramDetector().fit(gaussian_blob())
        detector.update(np.zeros(4))
        assert detector.num_updates == 1

    def test_update_shifts_distribution(self):
        # Absorbing a second cluster should stop flagging it.
        detector = HistogramDetector().fit(gaussian_blob(n=300))
        shifted = gaussian_blob(n=300, seed=2, center=4.0, scale=0.5)
        before = detector.normalized_scores(shifted).mean()
        detector.update(shifted)
        after = detector.normalized_scores(shifted).mean()
        assert after < before

    def test_update_dimension_mismatch(self):
        detector = HistogramDetector().fit(gaussian_blob())
        with pytest.raises(ValueError, match="dimension"):
            detector.update(np.zeros((1, 5)))

    def test_update_rejects_nonfinite(self):
        detector = HistogramDetector().fit(gaussian_blob())
        with pytest.raises(ValueError):
            detector.update(np.array([[np.inf] * 4]))

    def test_update_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            HistogramDetector().update(np.zeros((1, 2)))

    def test_confident_inlier_implies_inlier(self):
        detector = HistogramDetector().fit(gaussian_blob(n=500))
        x = gaussian_blob(n=100, seed=9)
        confident = detector.is_confident_inlier(x)
        outlier = detector.is_outlier(x)
        assert not (confident & outlier).any()


class TestSmoothing:
    def test_smoothing_preserves_total_count(self):
        config = HistogramConfig(smoothing_passes=2)
        detector = HistogramDetector(config).fit(gaussian_blob(n=200))
        # Binomial kernel with edge padding approximately preserves mass.
        assert detector._counts.sum() == pytest.approx(200 * 4, rel=0.15)

    def test_zero_smoothing_keeps_integer_counts(self):
        config = HistogramConfig(smoothing_passes=0)
        detector = HistogramDetector(config).fit(gaussian_blob(n=50))
        assert np.allclose(detector._counts, np.round(detector._counts))


@settings(max_examples=20, deadline=None)
@given(arrays(np.float64, (30, 3), elements=st.floats(-5, 5, allow_nan=False)))
def test_property_scores_finite_and_bounded(data):
    detector = HistogramDetector().fit(data)
    scores = detector.normalized_scores(data)
    assert np.isfinite(scores).all()
    assert ((scores >= 0) & (scores <= 1)).all()
    enhanced = detector.enhanced_scores(data)
    assert ((enhanced >= 0) & (enhanced <= 1)).all()


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 40))
def test_property_update_grows_sample_count(n):
    detector = HistogramDetector().fit(gaussian_blob(n=50))
    detector.update(gaussian_blob(n=n, seed=3))
    assert detector.num_samples == 50 + n


# ----------------------------------------------------------------------
# Incremental update == from-scratch fit, bit for bit
# ----------------------------------------------------------------------
class ReferenceHistogram:
    """The per-dimension ``np.histogram`` rebuild and ``searchsorted``
    scorer the incremental detector replaced (test oracle).  Refits from
    scratch on every row absorbed so far."""

    def __init__(self, config: HistogramConfig, data: np.ndarray):
        self.config = config
        n, d = data.shape
        m = config.num_bins
        lows, highs = data.min(axis=0), data.max(axis=0)
        flat = highs - lows <= 0
        lows = np.where(flat, lows - 0.5, lows)
        highs = np.where(flat, highs + 0.5, highs)
        self.edges = np.linspace(lows, highs, m + 1, axis=1)
        counts = np.empty((d, m), dtype=np.float64)
        for j in range(d):
            counts[j], _ = np.histogram(data[:, j], bins=self.edges[j])
        for _ in range(config.smoothing_passes):
            padded = np.pad(counts, ((0, 0), (1, 1)), mode="edge")
            counts = 0.25 * padded[:, :-2] + 0.5 * padded[:, 1:-1] + 0.25 * padded[:, 2:]
        self.counts = counts
        self.log_density = np.log(1.0 / np.maximum(counts, config.pseudo_count))
        self.oor_score = float(np.log(1.0 / np.maximum(0.0, config.pseudo_count)))
        raw = self.raw_scores(data)
        self.low, self.high = float(raw.min()), float(raw.max())
        normalized = self.normalize(raw)
        order = np.sort(normalized)[::-1]
        index = max(min(int(np.ceil(len(order) * config.contamination)) - 1, len(order) - 1), 0)
        self.plain_threshold = float(order[index])

    def raw_scores(self, x: np.ndarray) -> np.ndarray:
        d, m = self.counts.shape
        out = np.empty(x.shape, dtype=np.float64)
        for j in range(d):
            edges = self.edges[j]
            col = x[:, j]
            positions = np.searchsorted(edges, col, side="right") - 1
            in_range = (col >= edges[0]) & (col <= edges[-1])
            values = self.log_density[j][np.clip(positions, 0, m - 1)]
            values[~in_range] = self.oor_score
            out[:, j] = values
        return out.sum(axis=1)

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        span = self.high - self.low
        out = np.full_like(raw, 0.5) if span <= 0 else (raw - self.low) / span
        return np.clip(out, 0.0, 1.0)

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        normalized = self.normalize(self.raw_scores(x))
        if not self.config.enhanced:
            return normalized
        logits = (2.0 * normalized - 1.0) / self.config.temperature
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))


def probe_rows(data: np.ndarray, rng) -> np.ndarray:
    """Rows to score: in-range, on the edges, out of range, NaN and ±inf."""
    d = data.shape[1]
    rows = [data[: min(len(data), 5)], data.min(axis=0)[None], data.max(axis=0)[None],
            rng.normal(0.0, 3.0, size=(6, d)), np.full((1, d), np.nan),
            np.full((1, d), np.inf), np.full((1, d), -np.inf)]
    mixed = rng.normal(size=(3, d))
    mixed[0, 0], mixed[1, -1], mixed[2, d // 2] = np.nan, np.inf, -np.inf
    return np.vstack(rows + [mixed])


def assert_matches_reference(detector: HistogramDetector, data: np.ndarray, rng) -> None:
    reference = ReferenceHistogram(detector.config, data)
    assert detector.num_samples == len(data)
    np.testing.assert_array_equal(detector._edges, reference.edges)
    np.testing.assert_array_equal(detector._counts, reference.counts)
    np.testing.assert_array_equal(detector._log_density, reference.log_density)
    assert detector._normalizer.low == reference.low
    assert detector._normalizer.high == reference.high
    if not detector.config.enhanced:
        assert detector.threshold == reference.plain_threshold
    probes = probe_rows(data, rng)
    batch = detector.score_batch(probes)
    np.testing.assert_array_equal(batch.scores, reference.decision_scores(probes))
    for i, row in enumerate(probes):
        np.testing.assert_array_equal(detector.decision_scores(row[None]), batch.scores[i:i + 1])


CONFIGS = [HistogramConfig(), HistogramConfig(enhanced=False, contamination=0.1),
           HistogramConfig(num_bins=3, smoothing_passes=0),
           HistogramConfig(num_bins=40, smoothing_passes=2)]


class TestIncrementalMatchesRefit:
    @pytest.mark.parametrize("config", CONFIGS, ids=["enhanced", "plain", "coarse", "fine"])
    @pytest.mark.parametrize("seed", range(4))
    def test_update_sequence(self, config, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        data = rng.normal(size=(int(rng.integers(1, 30)), d))
        detector = HistogramDetector(config).fit(data)
        assert_matches_reference(detector, data, rng)
        for step in range(12):
            if step % 3 == 0:
                batch = rng.normal(size=(int(rng.integers(1, 8)), d))
            else:
                # Mostly inside the current range, so no edge moves.
                lows, highs = data.min(axis=0), data.max(axis=0)
                batch = rng.uniform(lows, highs, size=(1, d))
            if step == 7:
                batch = batch * 10.0  # widens the range
            detector.update(batch[0] if len(batch) == 1 and step % 2 else batch)
            data = np.vstack([data, batch])
            assert_matches_reference(detector, data, rng)

    @pytest.mark.parametrize("config", CONFIGS[:2], ids=["enhanced", "plain"])
    def test_constant_dimensions(self, config):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(20, 4))
        data[:, 1] = 2.5
        data[:, 3] = -1.0
        detector = HistogramDetector(config).fit(data)
        for value in (2.5, 2.5, 3.0):
            row = rng.normal(size=(1, 4))
            row[0, 1] = value
            row[0, 3] = -1.0
            detector.update(row)
            data = np.vstack([data, row])
            assert_matches_reference(detector, data, rng)

    def test_single_row_fit_then_updates(self):
        rng = np.random.default_rng(3)
        data = np.zeros((1, 3))
        detector = HistogramDetector().fit(data)
        for _ in range(4):
            detector.update(np.zeros(3))
            data = np.vstack([data, np.zeros((1, 3))])
            assert_matches_reference(detector, data, rng)
        detector.update(np.ones(3))
        assert_matches_reference(detector, np.vstack([data, np.ones((1, 3))]), rng)

    @pytest.mark.parametrize("config", CONFIGS[:2], ids=["enhanced", "plain"])
    def test_state_dict_round_trip(self, config):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(25, 3))
        detector = HistogramDetector(config).fit(data)
        for _ in range(10):
            row = rng.uniform(-0.5, 0.5, size=(1, 3))
            detector.update(row)
            data = np.vstack([data, row])
        restored = HistogramDetector(config).load_state_dict(detector.state_dict())
        assert restored.num_updates == detector.num_updates == 10
        assert_matches_reference(restored, data, rng)
        probes = probe_rows(data, rng)
        np.testing.assert_array_equal(restored.score_batch(probes).scores,
                                      detector.score_batch(probes).scores)
        for _ in range(3):
            row = rng.uniform(-0.5, 0.5, size=(1, 3))
            detector.update(row)
            restored.update(row)
            data = np.vstack([data, row])
        assert_matches_reference(restored, data, rng)
        np.testing.assert_array_equal(restored._counts, detector._counts)

    def test_refit_of_a_shallow_copy_leaves_the_original(self):
        import copy
        rng = np.random.default_rng(8)
        data = rng.normal(size=(30, 3))
        detector = HistogramDetector().fit(data)
        detector.update(rng.uniform(-0.5, 0.5, size=(2, 3)))
        before = detector.state_dict()
        clone = copy.copy(detector)
        clone.refit(rng.normal(size=(10, 3)))
        after = detector.state_dict()
        np.testing.assert_array_equal(after["data"], before["data"])
        assert after["num_updates"] == before["num_updates"] == 2
        assert clone.num_samples == 10 and detector.num_samples == 32


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 12),
       st.sampled_from(CONFIGS), st.lists(st.integers(1, 4), min_size=1, max_size=8))
def test_property_incremental_equals_refit(seed, d, n, config, batches):
    rng = np.random.default_rng(seed)
    # Coarse values make ties with bin edges and repeated rows common.
    data = np.round(rng.normal(size=(n, d)), 1)
    detector = HistogramDetector(config).fit(data)
    for size in batches:
        batch = np.round(rng.normal(scale=1.2, size=(size, d)), 1)
        detector.update(batch)
        data = np.vstack([data, batch])
    assert_matches_reference(detector, data, rng)
