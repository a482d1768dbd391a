"""GEM system configuration (all Sec.-V hyper-parameters in one place)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.detection.histogram import HistogramConfig
from repro.embedding.bisage import BiSAGEConfig
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["GEMConfig"]


@dataclass(frozen=True)
class GEMConfig:
    """Configuration for the full GEM pipeline.

    Defaults follow the paper's tuned baseline parameters (Sec. V):
    learning rate 0.003, embedding dimension 32, offset c = 120 dBm,
    scaling factor T = 0.06, τ_u = 0.005, τ_l = 0.001.
    """

    bisage: BiSAGEConfig = field(default_factory=BiSAGEConfig)
    histogram: HistogramConfig = field(default_factory=HistogramConfig)
    weight_offset: float = 120.0
    self_update: bool = True
    batch_update_size: int = 1

    def __post_init__(self):
        check_positive(self.weight_offset, "weight_offset")
        check_positive_int(self.batch_update_size, "batch_update_size")

    def with_dim(self, dim: int) -> "GEMConfig":
        """Convenience for the Fig. 13(a)/14(a) embedding-dimension sweeps."""
        return replace(self, bisage=replace(self.bisage, dim=dim))

    def with_temperature(self, temperature: float) -> "GEMConfig":
        """Convenience for the Fig. 13(b)/14(b) scaling-factor sweeps."""
        return replace(self, histogram=replace(self.histogram, temperature=temperature))

    def with_bins(self, num_bins: int) -> "GEMConfig":
        """Convenience for the Fig. 13(c)/14(c) bin-count sweeps."""
        return replace(self, histogram=replace(self.histogram, num_bins=num_bins))

    def to_dict(self) -> dict:
        """JSON-safe nested dict of every hyper-parameter."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GEMConfig":
        """Inverse of :meth:`to_dict` (used by checkpoint loading)."""
        data = dict(data)
        if "bisage" in data:
            data["bisage"] = BiSAGEConfig.from_dict(data["bisage"])
        if "histogram" in data:
            data["histogram"] = HistogramConfig.from_dict(data["histogram"])
        return cls(**data)
