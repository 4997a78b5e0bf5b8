"""Bit-level helpers used across the wire formats."""

from __future__ import annotations


def checksum16(data: bytes) -> int:
    """Internet checksum (RFC 1071) over ``data``.

    Used for the IPv4 header checksum in the packet substrate.
    """
    if len(data) % 2 == 1:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF
