"""PERA: "PISA Extended with Remote Attestation" (paper §5, Figs. 2-4).

The unmodified PISA pipeline (:mod:`repro.pisa`) plus the two blocks
Fig. 3 adds — Sign/Verify and Evidence Create/Inspect/Compose — and the
Fig. 4 configuration surface:

- :mod:`repro.pera.inertia` — the five inertia classes (hardware,
  program, tables, program state, packets) and their cache lifetimes.
- :mod:`repro.pera.measurement` — the measurement engine: produce a
  digest for any inertia class of a running switch.
- :mod:`repro.pera.cache` — the evidence cache ("high-inertia
  attestations are more easily cached since they take longer to
  expire").
- :mod:`repro.pera.sampling` — evidence frequency control (per-packet,
  1-in-N, periodic).
- :mod:`repro.pera.records` — batched signature verification over a
  stack of hop records (the record type itself is
  :class:`repro.evidence.nodes.HopEvidence`).
- :mod:`repro.pera.config` — the Fig. 4 design-space point: detail ×
  composition × sampling.
- :mod:`repro.pera.switch` — :class:`PeraSwitch`, the attesting switch.
"""

from repro.pera.inertia import InertiaClass, DEFAULT_TTLS
from repro.pera.measurement import MeasurementEngine
from repro.pera.cache import EvidenceCache
from repro.pera.sampling import SamplingMode, SamplingSpec, Sampler
from repro.pera.config import CompositionMode, DetailLevel, EvidenceConfig
from repro.pera.switch import PeraSwitch

__all__ = [
    "InertiaClass",
    "DEFAULT_TTLS",
    "MeasurementEngine",
    "EvidenceCache",
    "SamplingMode",
    "SamplingSpec",
    "Sampler",
    "CompositionMode",
    "DetailLevel",
    "EvidenceConfig",
    "PeraSwitch",
]
