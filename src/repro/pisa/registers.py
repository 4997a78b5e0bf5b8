"""Stateful dataplane objects: registers, counters, meters.

These hold the "Prog. State" inertia class of the paper's Fig. 4 —
state that changes faster than table entries but slower than packets.
All are fixed-size arrays, as on real PISA hardware.
"""

from __future__ import annotations

from typing import Dict, List

from repro.util.errors import PipelineError


class Register:
    """A fixed-size array of integers with bounded cell width."""

    def __init__(self, name: str, size: int, bit_width: int = 32) -> None:
        if size <= 0:
            raise PipelineError(f"register {name!r} needs positive size")
        if bit_width <= 0 or bit_width > 64:
            raise PipelineError(f"register {name!r} bit width out of range")
        self.name = name
        self.size = size
        self.bit_width = bit_width
        self._cells: List[int] = [0] * size

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise PipelineError(
                f"register {self.name!r} index {index} out of range [0, {self.size})"
            )

    def read(self, index: int) -> int:
        self._check_index(index)
        return self._cells[index]

    def write(self, index: int, value: int) -> None:
        self._check_index(index)
        self._cells[index] = value & ((1 << self.bit_width) - 1)

    def snapshot(self) -> bytes:
        """Canonical bytes for attestation of program state."""
        cell_bytes = (self.bit_width + 7) // 8
        return b"".join(value.to_bytes(cell_bytes, "big") for value in self._cells)


class Counter:
    """A packet-and-byte counter array (P4 ``counter``)."""

    def __init__(self, name: str, size: int) -> None:
        if size <= 0:
            raise PipelineError(f"counter {name!r} needs positive size")
        self.name = name
        self.size = size
        self._packets: List[int] = [0] * size
        self._bytes: List[int] = [0] * size

    def count(self, index: int, packet_bytes: int = 0) -> None:
        if not 0 <= index < self.size:
            raise PipelineError(
                f"counter {self.name!r} index {index} out of range [0, {self.size})"
            )
        self._packets[index] += 1
        self._bytes[index] += packet_bytes

    def read(self, index: int) -> Dict[str, int]:
        if not 0 <= index < self.size:
            raise PipelineError(
                f"counter {self.name!r} index {index} out of range [0, {self.size})"
            )
        return {"packets": self._packets[index], "bytes": self._bytes[index]}


class Meter:
    """A two-rate token-bucket meter returning a colour per packet.

    Simplified srTCM: green while under ``rate_bps``, yellow within the
    burst allowance, red beyond — driven off the simulated clock so it
    is deterministic.
    """

    GREEN, YELLOW, RED = "green", "yellow", "red"

    def __init__(
        self, name: str, rate_bps: float, burst_bytes: int = 15000
    ) -> None:
        if rate_bps <= 0 or burst_bytes <= 0:
            raise PipelineError(f"meter {name!r} needs positive rate and burst")
        self.name = name
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self._tokens = float(burst_bytes)
        self._excess = float(burst_bytes)
        self._last_time = 0.0

    def execute(self, now: float, packet_bytes: int) -> str:
        elapsed = max(0.0, now - self._last_time)
        self._last_time = max(self._last_time, now)
        refill = elapsed * self.rate_bps / 8
        self._tokens = min(self.burst_bytes, self._tokens + refill)
        self._excess = min(self.burst_bytes, self._excess + refill)
        if self._tokens >= packet_bytes:
            self._tokens -= packet_bytes
            return self.GREEN
        if self._excess >= packet_bytes:
            self._excess -= packet_bytes
            return self.YELLOW
        return self.RED
