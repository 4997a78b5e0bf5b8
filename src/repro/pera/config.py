"""The Fig. 4 design-space point: Detail × Composition × Sampling.

"Inertia, Detail and Composition are the primary indices in our design
space for PERA." A :class:`EvidenceConfig` pins one point:

- **Detail** — which inertia classes each hop measures, from the
  cheap, high-inertia pair (hardware + program) out to full per-packet
  evidence ("Sampling ↔ Expansive" on the Detail axis).
- **Composition** — pointwise (each hop stands alone), chained (each
  hop extends a hash chain over the previous records), or traffic-path
  (chained + per-packet digest binding evidence to the very packet).
- **Sampling** — how often evidence is produced at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.pera.inertia import InertiaClass
from repro.pera.sampling import SamplingSpec


class DetailLevel(enum.Enum):
    """Named points on the Fig. 4 Detail axis."""

    MINIMAL = "minimal"  # hardware + program
    CONFIG = "config"  # + tables
    STATE = "state"  # + program state
    EXPANSIVE = "expansive"  # + per-packet digests

    @property
    def inertia_classes(self) -> Tuple[InertiaClass, ...]:
        base = (InertiaClass.HARDWARE, InertiaClass.PROGRAM)
        if self is DetailLevel.MINIMAL:
            return base
        if self is DetailLevel.CONFIG:
            return base + (InertiaClass.TABLES,)
        if self is DetailLevel.STATE:
            return base + (InertiaClass.TABLES, InertiaClass.PROG_STATE)
        return base + (
            InertiaClass.TABLES,
            InertiaClass.PROG_STATE,
            InertiaClass.PACKETS,
        )


class CompositionMode(enum.Enum):
    """The Fig. 4 Composition axis."""

    POINTWISE = "pointwise"
    CHAINED = "chained"
    TRAFFIC_PATH = "traffic_path"


@dataclass(frozen=True)
class BatchingSpec:
    """Epoch-batched signing parameters (:mod:`repro.pera.epoch`).

    An epoch seals when it holds ``max_records`` records or has been
    open for ``max_delay_s`` simulated seconds, whichever comes first.
    ``max_delay_s`` bounds the latency a parked in-band packet can
    accumulate waiting for its epoch-root signature; set it to ``0`` to
    seal on count (or explicit flush) only.
    """

    max_records: int = 32
    max_delay_s: float = 0.005

    def __post_init__(self) -> None:
        if self.max_records < 1:
            raise ValueError("batching needs max_records >= 1")


@dataclass(frozen=True)
class EvidenceConfig:
    """One point in the PERA design space."""

    detail: DetailLevel = DetailLevel.MINIMAL
    composition: CompositionMode = CompositionMode.POINTWISE
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    # Epoch-batched signing: sign one Merkle root per epoch instead of
    # one signature per packet. Only engages on configs that would
    # otherwise sign per packet (chained / traffic-path / expansive);
    # cacheable pointwise evidence already amortizes better than this.
    batching: Optional[BatchingSpec] = None

    @property
    def needs_packet_digest(self) -> bool:
        return (
            self.composition is CompositionMode.TRAFFIC_PATH
            or InertiaClass.PACKETS in self.detail.inertia_classes
        )

    @property
    def per_packet_signature(self) -> bool:
        """Whether each attested packet needs a fresh signature.

        Pointwise/chained evidence over cacheable classes can reuse a
        cached signed record; anything involving the packet itself
        cannot.
        """
        return self.needs_packet_digest or (
            self.composition is CompositionMode.CHAINED
        )
