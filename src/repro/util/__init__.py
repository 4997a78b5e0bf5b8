"""Shared utility layer: errors, TLV codec, checksum, ids, clocks.

Everything above this layer (crypto, net, pisa, ...) depends only on the
standard library plus this package, keeping the dependency graph a clean
DAG: util -> crypto -> net -> pisa -> netkat/copland -> ra -> pera -> core.
"""

from repro.util.errors import (
    ReproError,
    CodecError,
    ConfigError,
    CryptoError,
    NetworkError,
    PipelineError,
    PolicyError,
    VerificationError,
)
from repro.util.tlv import Tlv, TlvCodec
from repro.util.bits import checksum16
from repro.util.ids import IdAllocator, short_id
from repro.util.clock import SimClock

__all__ = [
    "ReproError",
    "CodecError",
    "ConfigError",
    "CryptoError",
    "NetworkError",
    "PipelineError",
    "PolicyError",
    "VerificationError",
    "Tlv",
    "TlvCodec",
    "checksum16",
    "IdAllocator",
    "short_id",
    "SimClock",
]
