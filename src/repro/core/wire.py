"""Policy-only wire framing (the §5.2 options header).

A compiled policy serializes as one TLV (type
:data:`~repro.evidence.codec.POLICY_TLV_TYPE`, ``0x20``) whose value is
a nested TLV stream. Evidence itself no longer lives here: hop records
are canonical :mod:`repro.evidence` nodes and their framing (type
``0x10``) belongs to :mod:`repro.evidence.codec`. Both share the RA
shim header body — a packet carries ``[policy TLV][record TLV]*`` and
each decoder skips the other's types.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.compiler import CompiledPolicy, HopDirective
from repro.evidence.codec import POLICY_TLV_TYPE
from repro.pera.config import CompositionMode, DetailLevel
from repro.util.errors import CodecError
from repro.util.tlv import Tlv, TlvCodec

_T_POLICY_ID = 1
_T_RELYING_PARTY = 2
_T_NONCE = 3
_T_APPRAISER = 4
_T_TEST = 5
_T_ATTEST_ARG = 6
_T_DETAIL = 7
_T_COMPOSITION = 8
_T_FLAGS = 9
_T_OOB_TO = 10
_T_TERMINAL = 11
_T_REQUIRED = 12  # value: place '\x00' function
_T_MIN_HOPS = 13

_FLAG_SIGN = 0x01

_DETAIL_CODES = {level: i for i, level in enumerate(DetailLevel)}
_DETAIL_FROM_CODE = {i: level for level, i in _DETAIL_CODES.items()}
_COMPOSITION_CODES = {mode: i for i, mode in enumerate(CompositionMode)}
_COMPOSITION_FROM_CODE = {i: mode for mode, i in _COMPOSITION_CODES.items()}


def encode_compiled_policy(policy: CompiledPolicy) -> bytes:
    """Serialize to the single policy TLV (header + nested TLVs)."""
    min_hops = policy.min_attested_hops
    # Two bytes, wider only for a count that arrived wider: whatever
    # decodes must encode again.
    min_hops_width = max(2, (min_hops.bit_length() + 7) // 8)
    elements: List[Tlv] = [
        Tlv(_T_POLICY_ID, policy.policy_id.encode()),
        Tlv(_T_RELYING_PARTY, policy.relying_party.encode()),
        Tlv(_T_NONCE, policy.nonce),
        Tlv(_T_APPRAISER, policy.appraiser.encode()),
        Tlv(_T_DETAIL, bytes([_DETAIL_CODES[policy.hop.detail]])),
        Tlv(_T_COMPOSITION, bytes([_COMPOSITION_CODES[policy.hop.composition]])),
        Tlv(_T_FLAGS, bytes([_FLAG_SIGN if policy.hop.sign else 0])),
        Tlv(_T_MIN_HOPS, min_hops.to_bytes(min_hops_width, "big")),
    ]
    if policy.hop.test_text:
        elements.append(Tlv(_T_TEST, policy.hop.test_text.encode()))
    for arg in policy.hop.attest:
        elements.append(Tlv(_T_ATTEST_ARG, arg.encode()))
    if policy.hop.out_of_band_to:
        elements.append(Tlv(_T_OOB_TO, policy.hop.out_of_band_to.encode()))
    if policy.terminal_place:
        elements.append(Tlv(_T_TERMINAL, policy.terminal_place.encode()))
    for place, function in policy.required_functions:
        elements.append(
            Tlv(_T_REQUIRED, place.encode() + b"\x00" + function.encode())
        )
    return Tlv(POLICY_TLV_TYPE, TlvCodec.encode(elements)).encode()


def decode_compiled_policy(body: bytes) -> Optional[CompiledPolicy]:
    """Find and decode the policy TLV in a shim body (None if absent)."""
    for element in TlvCodec.iter_decode(body):
        if element.type == POLICY_TLV_TYPE:
            return _decode_inner(element.value)
    return None


def _decode_inner(data: bytes) -> CompiledPolicy:
    policy_id = relying_party = appraiser = ""
    nonce = b""
    test_text = ""
    attest: List[str] = []
    detail = DetailLevel.MINIMAL
    composition = CompositionMode.CHAINED
    sign = True
    out_of_band_to = ""
    terminal = ""
    required: List[Tuple[str, str]] = []
    min_hops = 0
    try:
        for element in TlvCodec.iter_decode(data):
            if element.type == _T_POLICY_ID:
                policy_id = element.value.decode()
            elif element.type == _T_RELYING_PARTY:
                relying_party = element.value.decode()
            elif element.type == _T_NONCE:
                nonce = element.value
            elif element.type == _T_APPRAISER:
                appraiser = element.value.decode()
            elif element.type == _T_TEST:
                test_text = element.value.decode()
            elif element.type == _T_ATTEST_ARG:
                attest.append(element.value.decode())
            elif element.type == _T_DETAIL:
                code = element.value[0]
                if code not in _DETAIL_FROM_CODE:
                    raise CodecError(f"unknown detail code {code}")
                detail = _DETAIL_FROM_CODE[code]
            elif element.type == _T_COMPOSITION:
                code = element.value[0]
                if code not in _COMPOSITION_FROM_CODE:
                    raise CodecError(f"unknown composition code {code}")
                composition = _COMPOSITION_FROM_CODE[code]
            elif element.type == _T_FLAGS:
                sign = bool(element.value[0] & _FLAG_SIGN)
            elif element.type == _T_OOB_TO:
                out_of_band_to = element.value.decode()
            elif element.type == _T_TERMINAL:
                terminal = element.value.decode()
            elif element.type == _T_REQUIRED:
                place, _, function = element.value.partition(b"\x00")
                required.append((place.decode(), function.decode()))
            elif element.type == _T_MIN_HOPS:
                min_hops = int.from_bytes(element.value, "big")
            else:
                raise CodecError(f"unknown policy TLV type {element.type}")
    except (IndexError, UnicodeDecodeError) as exc:
        # An empty one-byte field or a non-UTF-8 text field.
        raise CodecError(f"malformed policy field: {exc}") from exc
    if not policy_id:
        raise CodecError("policy TLV missing policy id")
    return CompiledPolicy(
        policy_id=policy_id,
        relying_party=relying_party,
        nonce=nonce,
        appraiser=appraiser,
        hop=HopDirective(
            test_text=test_text,
            attest=tuple(attest),
            detail=detail,
            composition=composition,
            sign=sign,
            out_of_band_to=out_of_band_to,
        ),
        terminal_place=terminal,
        required_functions=tuple(required),
        min_attested_hops=min_hops,
    )
