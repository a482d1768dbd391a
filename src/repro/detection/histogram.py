"""The paper's enhanced histogram-based one-class detector ("OD", Sec. III-C).

Pipeline per Sec. III-C / IV:

1. **HBOS base** — one histogram per embedding dimension over the
   training (normal) embeddings, ``m`` equal-width bins between the
   per-dimension min and max; raw score ``H(h) = Σ_j log(1 / hist_j(h_j))``
   (Eq. 10), where out-of-range or empty bins contribute a small pseudo
   count so the score stays finite but large.
2. **Normalisation** — training raw scores are min–max normalised to
   [0, 1]; the same affine map (clipped) is applied to new samples.
3. **Enhancement** — the Boltzmann/softmax rescaling of Eq. 11 with
   temperature ``T``: ``S_T(h) = σ((2·H̄(h) − 1) / T)``; OUT iff
   ``S_T > τ_u`` (Eq. 12), and a *highly confident* IN sample
   (``S_T < τ_l``) is absorbed into the histograms (Sec. IV-C), singly
   or in batches.

Setting ``enhanced=False`` reproduces the plain HBOS detector with the
contamination-based threshold ``τ = H̄(h_[i*])`` — the "without our
enhancement" arm of Fig. 7(b).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.detection.batch import BatchScores
from repro.detection.threshold import MinMaxNormalizer, contamination_threshold
from repro.utils.validation import check_positive, check_positive_int, check_probability

__all__ = ["HistogramConfig", "HistogramDetector"]


@dataclass(frozen=True)
class HistogramConfig:
    """Hyper-parameters.

    ``temperature`` and ``num_bins`` follow the paper (Sec. V).  The
    thresholds τ_u/τ_l are deployment constants the authors tuned on
    their measurement campaign (0.005 / 0.001, which with T = 0.06 put
    the decision cut at normalised score H̄ ≈ 0.34).  On this
    reproduction's simulated substrate the normalised training-score
    bulk sits higher, so the defaults below place the cut at H̄ = 0.60
    (τ_u = σ((2·0.6−1)/T) ≈ 0.965) and the confident-inlier cut at
    H̄ = 0.50 (τ_l = 0.5).  The paper's values remain one constructor
    argument away.
    """

    num_bins: int = 10
    temperature: float = 0.06
    tau_upper: float = 0.9655
    tau_lower: float = 0.5
    enhanced: bool = True
    contamination: float = 0.05
    pseudo_count: float = 0.1
    smoothing_passes: int = 1

    def __post_init__(self):
        check_positive_int(self.num_bins, "num_bins")
        if self.smoothing_passes < 0:
            raise ValueError("smoothing_passes must be >= 0")
        check_positive(self.temperature, "temperature")
        check_probability(self.tau_upper, "tau_upper")
        check_probability(self.tau_lower, "tau_lower")
        if self.tau_lower > self.tau_upper:
            raise ValueError(f"tau_lower ({self.tau_lower}) must not exceed tau_upper ({self.tau_upper})")
        check_probability(self.contamination, "contamination")
        check_positive(self.pseudo_count, "pseudo_count")

    def to_dict(self) -> dict:
        """JSON-safe dict form; see :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramConfig":
        return cls(**data)


class HistogramDetector:
    """Enhanced histogram one-class classifier over embeddings."""

    def __init__(self, config: HistogramConfig = HistogramConfig()):
        self.config = config
        self._data: np.ndarray | None = None      # all absorbed normal embeddings
        self._edges: np.ndarray | None = None     # (d, m+1) bin edges
        self._counts: np.ndarray | None = None    # (d, m) frequency counts
        self._log_density: np.ndarray | None = None  # (d, m) decision surface
        self._oor_score: float | None = None
        self._normalizer: MinMaxNormalizer | None = None
        self._plain_threshold: float | None = None
        self.num_updates = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, embeddings: np.ndarray) -> "HistogramDetector":
        """Build histograms + score normalisation from normal embeddings."""
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if embeddings.ndim != 2 or len(embeddings) == 0:
            raise ValueError("fit expects a non-empty (n, d) embedding matrix")
        if not np.isfinite(embeddings).all():
            raise ValueError("embeddings contain non-finite values")
        self._data = embeddings.copy()
        self._rebuild()
        return self

    def _rebuild(self) -> None:
        """Recompute histograms, normalisation and thresholds from stored data."""
        data = self._data
        n, d = data.shape
        m = self.config.num_bins
        lows = data.min(axis=0)
        highs = data.max(axis=0)
        # Degenerate dimensions (constant value) get a symmetric unit span
        # so every training point lands mid-histogram.
        spans = highs - lows
        flat = spans <= 0
        lows = np.where(flat, lows - 0.5, lows)
        highs = np.where(flat, highs + 0.5, highs)
        self._edges = np.linspace(lows, highs, m + 1, axis=1)  # (d, m+1)
        counts = np.empty((d, m), dtype=np.float64)
        for j in range(d):
            counts[j], _ = np.histogram(data[:, j], bins=self._edges[j])
        # Binomial smoothing across adjacent bins: with n ~ hundreds of
        # samples spread over m bins per dimension, raw counts are noisy
        # and a normal sample that lands one bin over from the training
        # mass would otherwise receive an extreme log(1/count) penalty.
        for _ in range(self.config.smoothing_passes):
            padded = np.pad(counts, ((0, 0), (1, 1)), mode="edge")
            counts = 0.25 * padded[:, :-2] + 0.5 * padded[:, 1:-1] + 0.25 * padded[:, 2:]
        self._counts = counts
        # Precomputed decision surface: scoring a sample gathers from
        # this (d, m) log-density table instead of re-running the
        # max/reciprocal/log chain per sample.  Each table cell is the
        # scalar chain applied to the same count the per-sample path
        # would have gathered, so gathered scores are bit-identical.
        self._log_density = np.log(1.0 / np.maximum(counts, self.config.pseudo_count))
        self._oor_score = float(np.log(1.0 / np.maximum(0.0, self.config.pseudo_count)))
        raw = self._raw_scores(data)
        self._normalizer = MinMaxNormalizer().fit(raw)
        normalized = self._normalizer.transform(raw)
        self._plain_threshold = contamination_threshold(normalized, self.config.contamination)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _raw_scores(self, embeddings: np.ndarray) -> np.ndarray:
        """Eq. 10, gathered from the precomputed log-density surface.

        The per-cell pseudo-count guard is already baked into
        ``_log_density``; out-of-range samples take ``_oor_score``
        (the empty-bin penalty) exactly as a zero count would have.
        """
        d, m = self._counts.shape
        out = np.empty(embeddings.shape, dtype=np.float64)
        for j in range(d):
            edges = self._edges[j]
            col = embeddings[:, j]
            positions = np.searchsorted(edges, col, side="right") - 1
            in_range = (col >= edges[0]) & (col <= edges[-1])
            values = self._log_density[j][np.clip(positions, 0, m - 1)]
            values[~in_range] = self._oor_score
            out[:, j] = values
        return out.sum(axis=1)

    def normalized_scores(self, embeddings: np.ndarray) -> np.ndarray:
        """Min–max normalised H̄ scores in [0, 1] (higher = more outlying)."""
        self._require_fitted()
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        return self._normalizer.transform(self._raw_scores(embeddings))

    def enhanced_scores(self, embeddings: np.ndarray) -> np.ndarray:
        """Eq. 11: S_T(h) = σ((2·H̄ − 1) / T)."""
        normalized = self.normalized_scores(embeddings)
        logits = (2.0 * normalized - 1.0) / self.config.temperature
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))

    def decision_scores(self, embeddings: np.ndarray) -> np.ndarray:
        """Score used for thresholding (S_T if enhanced, else H̄)."""
        if self.config.enhanced:
            return self.enhanced_scores(embeddings)
        return self.normalized_scores(embeddings)

    @property
    def threshold(self) -> float:
        """Active OUT threshold (τ_u if enhanced, contamination τ otherwise)."""
        self._require_fitted()
        return self.config.tau_upper if self.config.enhanced else self._plain_threshold

    def is_outlier(self, embeddings: np.ndarray) -> np.ndarray:
        """Boolean OUT decision per row (Eq. 12)."""
        return self.decision_scores(embeddings) > self.threshold

    def is_confident_inlier(self, embeddings: np.ndarray) -> np.ndarray:
        """Highly confident IN per Sec. IV-C: S_T < τ_l (enhanced mode only)."""
        self._require_fitted()
        if not self.config.enhanced:
            return np.zeros(len(np.atleast_2d(embeddings)), dtype=bool)
        return self.enhanced_scores(embeddings) < self.config.tau_lower

    # ------------------------------------------------------------------
    # Batch scoring (vectorized data plane)
    # ------------------------------------------------------------------
    def supports_batch_score(self) -> bool:
        """Histogram scoring is row-separable, so batching is bit-safe."""
        return True

    def score_batch(self, embeddings: np.ndarray) -> BatchScores:
        """Score a whole ``(B, d)`` batch in one pass — see
        :mod:`repro.detection.batch` for the bit-identity contract.

        One ``decision_scores`` evaluation yields all three verdicts:
        the scalar path's ``is_outlier`` / ``is_confident_inlier`` each
        re-derive the same deterministic score before comparing, so
        comparing the shared scores against the same cuts reproduces
        them exactly.
        """
        self._require_fitted()
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        scores = self.decision_scores(embeddings)
        outliers = scores > self.threshold
        if self.config.enhanced:
            confident = scores < self.config.tau_lower
        else:
            confident = np.zeros(len(scores), dtype=bool)
        return BatchScores(scores=scores, outliers=outliers, confident=confident)

    # ------------------------------------------------------------------
    # Online update (Sec. IV-C)
    # ------------------------------------------------------------------
    def update(self, embeddings: np.ndarray) -> None:
        """Absorb confident-inlier embeddings and rebuild the histograms.

        Accepts a single vector or a batch (the batch mode of Fig. 14(d,e)).
        """
        self._require_fitted()
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if embeddings.shape[1] != self._data.shape[1]:
            raise ValueError(f"dimension mismatch: update has {embeddings.shape[1]}, model has {self._data.shape[1]}")
        if not np.isfinite(embeddings).all():
            raise ValueError("update embeddings contain non-finite values")
        self._data = np.vstack([self._data, embeddings])
        self.num_updates += len(embeddings)
        self._rebuild()

    def refit(self, embeddings: np.ndarray) -> "HistogramDetector":
        """Re-baseline the detector on fresh embeddings (coordinated refresh).

        Unlike :meth:`update`, this *replaces* the absorbed training set
        instead of appending to it — the embedding function changed under
        us (e.g. a cache rebuild), so scores of old embeddings no longer
        live on the same scale as new ones.  ``num_updates`` restarts at
        zero: the new histograms owe nothing to the old online updates.
        """
        self.fit(embeddings)
        self.num_updates = 0
        return self

    @property
    def num_samples(self) -> int:
        self._require_fitted()
        return len(self._data)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: config + absorbed embeddings.

        Histograms, normalisation and thresholds are deterministic
        functions of the stored data, so :meth:`load_state_dict` rebuilds
        them instead of persisting derived arrays.
        """
        self._require_fitted()
        return {
            "config": self.config.to_dict(),
            "data": self._data.copy(),
            "num_updates": self.num_updates,
        }

    def load_state_dict(self, state: dict) -> "HistogramDetector":
        """Restore a detector saved by :meth:`state_dict`."""
        saved_cfg = HistogramConfig.from_dict(state["config"])
        if saved_cfg != self.config:
            raise ValueError("checkpoint config does not match this detector's config; "
                             f"saved {saved_cfg}, constructed with {self.config}")
        self.fit(np.asarray(state["data"], dtype=np.float64))
        self.num_updates = int(state["num_updates"])
        return self

    def _require_fitted(self) -> None:
        if self._data is None:
            raise RuntimeError("HistogramDetector has not been fitted; call fit first")
