"""A from-scratch Ed25519 implementation (RFC 8032).

This is the signature primitive behind Copland's ``!`` operator and the
Sign/Verify block of the PERA switch (paper Fig. 3). It follows the
RFC 8032 reference construction over the twisted Edwards curve
edwards25519, using extended homogeneous coordinates for group
arithmetic.

The implementation is deliberately self-contained (the library takes no
third-party dependency; OpenSSL, through ``cryptography``, is only a
test oracle) and is *not* constant-time; the simulated root of trust
does not face timing adversaries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.util.errors import CryptoError

# Curve constants (RFC 8032 §5.1).
_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P

SIGNATURE_LEN = 64
KEY_LEN = 32

# A point in extended homogeneous coordinates (X, Y, Z, T), x = X/Z,
# y = Y/Z, x*y = T/Z.
_Point = Tuple[int, int, int, int]
# A table entry: the same point in precomputed affine form
# (y − x, y + x, 2d·x·y), the form one mixed addition consumes.
_Cached = Tuple[int, int, int]

_IDENTITY: _Point = (0, 1, 1, 0)
_D2 = 2 * _D % _P


def _sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


def _inv(x: int) -> int:
    """``x⁻¹ mod p`` by CPython's extended Euclid: ~18 µs where the
    Fermat power ``x^(p−2)`` takes ~140 µs (python 3.11, x86-64), paid
    once in every point compression and once per prepared table.

    Raises ``ValueError`` for ``x ≡ 0``, which has no inverse.
    """
    return pow(x, -1, _P)


# sqrt(-1) mod p and the exponent of the combined square-root trick,
# hoisted: decompression is the per-signature cost of every R point.
_SQRT_M1 = pow(2, (_P - 1) // 4, _P)
_SQRT_EXP = (_P - 5) // 8


def _recover_x(y: int, sign_bit: int) -> int:
    """Recover the x-coordinate from y and the encoded sign bit.

    Uses the RFC 8032 §5.1.3 combined inversion-and-square-root:
    ``x = (u/v)^((p+3)/8)`` computed as ``u·v³·(u·v⁷)^((p-5)/8)`` —
    one modular exponentiation where the naive route pays two (a field
    inversion plus a separate root).
    """
    if y >= _P:
        raise CryptoError("point y-coordinate out of field range")
    u = (y * y - 1) % _P
    v = (_D * y * y + 1) % _P
    v3 = v * v % _P * v % _P
    v7 = v3 * v3 % _P * v % _P
    x = u * v3 % _P * pow(u * v7 % _P, _SQRT_EXP, _P) % _P
    vxx = v * x % _P * x % _P
    if vxx == u:
        pass  # square root found directly
    elif vxx == _P - u:
        x = x * _SQRT_M1 % _P
    else:
        raise CryptoError("invalid point encoding: no square root")
    if x == 0:
        if sign_bit:
            raise CryptoError("invalid point encoding: x=0 with sign bit set")
        return 0
    if (x & 1) != sign_bit:
        x = _P - x
    return x


def _point_add(p: _Point, q: _Point) -> _Point:
    """``p + q`` for two projective points (add-2008-hwcd-3, Hisil et
    al.): complete on edwards25519, 9 multiplications, one of them the
    three-factor ``2·t1·t2·d``."""
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = 2 * t1 * t2 * _D % _P
    d = 2 * z1 * z2 % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _point_double(p: _Point) -> _Point:
    """Dedicated doubling (dbl-2008-hwcd with a = -1).

    Cheaper than ``_point_add(p, p)`` — doubling needs four squarings
    instead of the general formula's eight multiplications, and it is
    the inner-loop operation of every scalar multiplication.
    """
    x1, y1, z1, _ = p
    a = x1 * x1 % _P
    b = y1 * y1 % _P
    c = 2 * z1 * z1 % _P
    xy = x1 + y1
    e = (xy * xy - a - b) % _P
    g = (b - a) % _P
    f = (g - c) % _P
    h = (-a - b) % _P
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _point_negate(p: _Point) -> _Point:
    x, y, z, t = p
    return (_P - x if x else 0, y, z, _P - t if t else 0)


def _madd(p: _Point, q: _Cached) -> _Point:
    """``p + q`` for a table entry ``q`` (madd-2008-hwcd-3).

    The same complete formula as :func:`_point_add` with ``Z₂ = 1``:
    ``q``'s ``y − x``, ``y + x`` and ``2d·x·y`` were computed when the
    table was built, so an addition costs 7 multiplications, none of
    them three-factor. Every table in this module holds entries of this
    form (the precomputed form of the Ed25519 paper, Bernstein et al.,
    2012).
    """
    x1, y1, z1, t1 = p
    ym, yp, t2d = q
    a = (y1 - x1) * ym % _P
    b = (y1 + x1) * yp % _P
    c = t1 * t2d % _P
    d = z1 + z1
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _cached_negate(q: _Cached) -> _Cached:
    """``−q``: ``x → −x`` swaps ``y − x`` and ``y + x`` and negates
    ``2d·x·y``, with no multiplication."""
    ym, yp, t2d = q
    return (yp, ym, _P - t2d)


def _prepare(points: Sequence[_Point]) -> List[_Cached]:
    """Every point in precomputed affine form, for one field inversion.

    Montgomery's trick: invert the product of all ``Z`` once, then peel
    each ``1/Z`` off it walking back, 3 multiplications per point; each
    entry takes 3 more. One inversion costs about as much as 40
    multiplications, so a table pays it once, not once per entry.
    """
    prefix: List[int] = []
    product = 1
    for point in points:
        prefix.append(product)
        product = product * point[2] % _P
    inverse = _inv(product)
    cached: List[_Cached] = [(1, 1, 0)] * len(points)
    for index in range(len(points) - 1, -1, -1):
        x, y, z, t = points[index]
        zinv = inverse * prefix[index] % _P
        inverse = inverse * z % _P
        cached[index] = (
            (y - x) * zinv % _P,
            (y + x) * zinv % _P,
            t * zinv * _D2 % _P,
        )
    return cached


def _point_mul(scalar: int, point: _Point) -> _Point:
    result = _IDENTITY
    addend = point
    while scalar > 0:
        if scalar & 1:
            result = _point_add(result, addend)
        addend = _point_double(addend)
        scalar >>= 1
    return result


# --- fixed-base scalar multiplication (signing hot path) ---------------
#
# Signing multiplies the *base point* by one scalar per signature; a
# precomputed window table turns that from ~256 doublings + ~128
# additions into at most 32 mixed additions with no doublings at all.
# The window is 8 bits: every batched check pays exactly one fixed-base
# multiplication (the ``(Σ z_i·s_i)·B`` term), and single verification
# routes its ``s·B`` half through this table too, so the wide window
# pays off on both the signing and the appraisal hot paths.
#
# Digits are signed, read straight off the bytes: adding 128 to every
# base-256 digit of ``s mod L`` (one addition of 0x8080…80) makes byte
# ``u`` of the sum stand for the digit ``u − 128`` in ``[−128, 127]``,
# so window ``j``'s row holds ``(u − 128)·2^(8j)·B`` at index ``u`` and
# the loop needs no carry. Only ``1·P … 128·P`` are computed per window,
# by mixed additions of ``P``; the negative half is their negation,
# which costs no multiplication. Each window is brought to affine form
# with one inversion, together with ``256·P``, the next window's base.
# The table is built lazily on first use (~4k mixed additions, tens of
# milliseconds) so merely importing the module stays cheap.

_WINDOW_BITS = 8
_WINDOWS = 32  # 8-bit windows over s mod L plus the digit offset
_DIGIT_ZERO = 1 << (_WINDOW_BITS - 1)  # byte 128 stands for digit 0
_DIGIT_OFFSET = int.from_bytes(bytes([_DIGIT_ZERO]) * _WINDOWS, "little")
_BASE_TABLE: List[Tuple[_Cached, ...]] = []


def _build_base_table() -> None:
    step = _prepare([_BASE])[0]
    for _ in range(_WINDOWS):
        multiples = []
        acc = _IDENTITY
        for _ in range(_DIGIT_ZERO):
            acc = _madd(acc, step)
            multiples.append(acc)
        multiples.append(_point_double(acc))
        *positive, step = _prepare(multiples)
        negative = [_cached_negate(entry) for entry in reversed(positive)]
        _BASE_TABLE.append(tuple(negative + [(1, 1, 0)] + positive[:-1]))


def _base_mul(scalar: int) -> _Point:
    """``scalar * B`` via the precomputed window table: one mixed
    addition, inlined, per non-zero signed digit."""
    if not _BASE_TABLE:
        _build_base_table()
    x, y, z, t = _IDENTITY
    digits = (scalar % _L + _DIGIT_OFFSET).to_bytes(_WINDOWS, "little")
    for row, digit in zip(_BASE_TABLE, digits):
        if digit != _DIGIT_ZERO:
            ym, yp, t2d = row[digit]
            a = (y - x) * ym % _P
            b = (y + x) * yp % _P
            c = t * t2d % _P
            d = z + z
            e, f, g, h = b - a, d - c, d + c, b + a
            x, y, z, t = e * f % _P, g * h % _P, f * g % _P, e * h % _P
    return (x, y, z, t)


# --- sparse wNAF recoding and interleaved multi-scalar multiplication --
#
# Verification is variable-base: ``k`` multiplies a public key and (in
# the batched check) randomizers multiply signature R-points. Width-w
# signed-digit (wNAF) recoding cuts the additions of an n-bit scalar
# from ~n/2 (binary) to ~n/(w+1), at the cost of a per-point table of
# 2^(w-2) odd multiples. Every term of one check shares one doubling
# chain, as long as the longest scalar:
#
# - a key scalar ``k`` (< L, 253 bits) splits into eight 32-bit parts
#   ``k = Σ 2^(32j)·k_j`` over the fixed bases ``2^(32j)·(-A)``. Their
#   width-6 tables (16 odd multiples each, 128 entries per key) are
#   built once per ``VerifyKey`` and cached, so a single check runs a
#   32-step chain with ~5 additions per part;
# - randomizers are 128-bit (see ``_batch_randomizers``), so a batch
#   runs a 128-step chain, the key parts riding along at its low end.
#
# R-points are fresh per signature: ``_multi_mul`` takes them as
# *fresh* terms, a bare ``(scalar, point)`` with no table. A small check
# builds each a width-5 table, where table cost and additions balance;
# all of one check's tables share one inversion. A large one
# (``_BUCKET_MIN`` terms or more) sums them by Pippenger's bucket method
# instead, which pays ~1 addition per term per c-bit window and no
# tables at all — see ``_bucket_windows``. Every table entry, cached or
# fresh, is in precomputed form, so the chain adds by ``_madd`` only.

_NAF_WIDTH = 5  # per-check R-point tables: 8 odd multiples
_KEY_WIDTH = 6  # cached key tables: 16 odd multiples per part
_KEY_PARTS = 8  # 8 parts of 32 bits cover k < L < 2^253
_PART_BITS = 32
_PART_MASK = (1 << _PART_BITS) - 1
# Fresh terms from which buckets replace width-5 tables. Per signature
# of a 20-signer batch, decompression excluded (2-core x86-64 host,
# python 3.11), tables vs buckets: n = 32 299 vs 325 µs, n = 48 268 vs
# 262, n = 64 233 vs 227, n = 256 197 vs 148, n = 1280 200 vs 108
# (docs/CRYPTO.md has the table).
_BUCKET_MIN = 64

# A multi-scalar term: (scalar, odd multiples of P, their wNAF width).
_Term = Tuple[int, Sequence[_Cached], int]
# A fresh term: (scalar, P), with no table.
_Fresh = Tuple[int, _Point]


def _wnaf(scalar: int, width: int) -> List[Tuple[int, int]]:
    """Sparse width-``width`` NAF: ``(position, digit)``, low first.

    Only non-zero digits are listed. Each is odd, has ``|digit| <
    2^(width-1)`` and sits at least ``width`` positions below the next;
    a run of zero bits is skipped in one step instead of one per bit.
    """
    digits: List[Tuple[int, int]] = []
    full = 1 << width
    half = full >> 1
    position = 0
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        scalar >>= zeros
        position += zeros
        digit = scalar & (full - 1)
        if digit >= half:
            digit -= full
        digits.append((position, digit))
        scalar = (scalar - digit) >> width
        position += width
    return digits


def _odd_chain(point: _Point, width: int) -> List[_Point]:
    """``(1P, 3P, 5P, ..., (2^(width-1) - 1)P)`` in projective form."""
    chain = [point]
    twice = _point_double(point)
    for _ in range((1 << (width - 2)) - 1):
        chain.append(_point_add(chain[-1], twice))
    return chain


def _odd_multiples(point: _Point, width: int = _NAF_WIDTH) -> Tuple[_Cached, ...]:
    """The wNAF table of ``point``: its odd multiples, prepared."""
    return tuple(_prepare(_odd_chain(point, width)))


def _bucket_width(count: int, bits: int) -> int:
    """The window width ``c`` that minimises the bucket method's
    additions, ``windows · (count + 2^c)``, for ``count`` scalars of
    ``bits`` bits (c = 5 at n = 64, 8 at n = 1280)."""
    return min(
        range(2, 17), key=lambda c: (bits // c + 1) * (count + (1 << c))
    )


def _bucket_windows(
    fresh: Sequence[_Fresh], buckets: Dict[int, List[_Cached]]
) -> None:
    """Add ``Σ scalar·P`` over ``fresh`` into ``buckets``, by window.

    Pippenger's bucket method. Each scalar is recoded into signed c-bit
    digits in ``(-2^(c-1), 2^(c-1)]``; a digit above the range borrows
    from the next window, so ``bits // c + 1`` windows hold even an
    all-ones top window's carry. Per window, every term adds ``±P`` into
    the bucket of its digit's magnitude — a mixed addition of ``P``'s
    prepared form, all of them prepared by one inversion — and a running
    sum from the top bucket down weights bucket ``d`` by ``d``: ~1
    addition per term plus 2 per bucket, no doublings. The window sums
    are prepared by one more inversion and land in ``buckets`` at bit
    ``c·j``, so the caller's one doubling chain does the shifting.
    """
    bits = max(scalar.bit_length() for scalar, _ in fresh)
    width = _bucket_width(len(fresh), bits)
    full = 1 << width
    half = full >> 1
    mask = full - 1
    windows = bits // width + 1
    digits: List[List[int]] = []
    for scalar, _ in fresh:
        row = []
        carry = 0
        for _ in range(windows):
            digit = (scalar & mask) + carry
            scalar >>= width
            carry = digit > half
            row.append(digit - full if carry else digit)
        digits.append(row)
    points = [point for _, point in fresh]
    signed = [
        (point, _point_negate(point), cached, _cached_negate(cached))
        for point, cached in zip(points, _prepare(points))
    ]
    totals: List[Tuple[int, _Point]] = []
    for window in range(windows):
        slots: List[Optional[_Point]] = [None] * half  # digit d at d - 1
        for row, (point, negated, cached, cached_neg) in zip(digits, signed):
            digit = row[window]
            if digit > 0:
                first, entry = point, cached
            elif digit < 0:
                first, entry, digit = negated, cached_neg, -digit
            else:
                continue
            held = slots[digit - 1]
            slots[digit - 1] = first if held is None else _madd(held, entry)
        running: Optional[_Point] = None
        total: Optional[_Point] = None
        for held in reversed(slots):
            if held is not None:
                running = held if running is None else _point_add(running, held)
            if running is not None:
                total = running if total is None else _point_add(total, running)
        if total is not None:
            totals.append((window * width, total))
    if totals:
        cached_totals = _prepare([total for _, total in totals])
        for (position, _), entry in zip(totals, cached_totals):
            buckets.setdefault(position, []).append(entry)


def _multi_mul(
    terms: Sequence[_Term], fresh: Sequence[_Fresh] = ()
) -> _Point:
    """``Σ scalar·P`` over ``(scalar, odd multiples of P, width)`` terms
    plus ``(scalar, P)`` fresh terms that come without a table.

    Every digit's table entry is bucketed by bit position up front, so
    the one shared doubling chain touches only positions with work
    instead of scanning every term per doubling. Fewer than
    ``_BUCKET_MIN`` fresh terms get width-5 tables, prepared together by
    one inversion, and join ``terms``; more are summed per window by
    :func:`_bucket_windows`, whose window sums join the same positions
    and the same chain. Every entry is added by one mixed addition.
    """
    buckets: Dict[int, List[_Cached]] = {}
    if len(fresh) >= _BUCKET_MIN:
        _bucket_windows(fresh, buckets)
    elif fresh:
        count = 1 << (_NAF_WIDTH - 2)
        flat = _prepare(
            [entry for _, point in fresh for entry in _odd_chain(point, _NAF_WIDTH)]
        )
        terms = [
            (scalar, flat[index * count : (index + 1) * count], _NAF_WIDTH)
            for index, (scalar, _) in enumerate(fresh)
        ] + list(terms)
    for scalar, table, width in terms:
        for position, digit in _wnaf(scalar, width):
            entry = (
                table[digit >> 1] if digit > 0 else _cached_negate(table[-digit >> 1])
            )
            buckets.setdefault(position, []).append(entry)
    result = _IDENTITY
    for position in range(max(buckets, default=-1), -1, -1):
        result = _point_double(result)
        for entry in buckets.get(position, ()):
            result = _madd(result, entry)
    return result


def _point_equal(p: _Point, q: _Point) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0


def _point_compress(p: _Point) -> bytes:
    x, y, z, _ = p
    try:
        zinv = _inv(z)
    except ValueError:
        raise CryptoError("cannot compress Z ≡ 0: not a point") from None
    x = x * zinv % _P
    y = y * zinv % _P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _point_decompress(data: bytes) -> _Point:
    if len(data) != 32:
        raise CryptoError(f"point encoding must be 32 bytes, got {len(data)}")
    encoded = int.from_bytes(data, "little")
    sign_bit = encoded >> 255
    y = encoded & ((1 << 255) - 1)
    x = _recover_x(y, sign_bit)
    return (x, y, 1, x * y % _P)


# Base point B (RFC 8032 §5.1).
_BASE_Y = 4 * _inv(5) % _P
_BASE_X = _recover_x(_BASE_Y, 0)
_BASE: _Point = (_BASE_X, _BASE_Y, 1, _BASE_X * _BASE_Y % _P)


def _secret_expand(secret: bytes) -> Tuple[int, bytes]:
    if len(secret) != KEY_LEN:
        raise CryptoError(f"secret key must be {KEY_LEN} bytes, got {len(secret)}")
    h = _sha512(secret)
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, h[32:]


def public_key_bytes(secret: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret seed."""
    a, _ = _secret_expand(secret)
    return _point_compress(_base_mul(a))


def _sign_expanded(a: int, prefix: bytes, public: bytes, message: bytes) -> bytes:
    r = int.from_bytes(_sha512(prefix + message), "little") % _L
    r_point = _point_compress(_base_mul(r))
    k = int.from_bytes(_sha512(r_point + public + message), "little") % _L
    s = (r + k * a) % _L
    return r_point + s.to_bytes(32, "little")


def sign(secret: bytes, message: bytes) -> bytes:
    """Produce a 64-byte Ed25519 signature over ``message``."""
    a, prefix = _secret_expand(secret)
    public = _point_compress(_base_mul(a))
    return _sign_expanded(a, prefix, public, message)


def _challenge(public: bytes, message: bytes, signature: bytes) -> int:
    """The RFC 8032 challenge scalar ``k = H(R || A || M) mod L``."""
    return int.from_bytes(_sha512(signature[:32] + public + message), "little") % _L


def _mul_by_cofactor(p: _Point) -> _Point:
    """``[8]P`` — three doublings clear any small-order component."""
    return _point_double(_point_double(_point_double(p)))


def _check_single(
    key: "VerifyKey",
    signature: bytes,
    s: int,
    k: int,
    r_point: Optional[_Point] = None,
) -> bool:
    """The cofactored single check of ``signature`` under ``key``, for
    its ``s < L`` and challenge ``k``.

    The equation is RFC 8032 §5.1.7's cofactored variant, "[8][S]B =
    [8]R + [8][k]A'": ``[8](R' − R) == 0`` for ``R' = s·B + k·(−A)``.
    Cofactorless single verification cannot agree with any batched
    check (Chalkias et al., "Taming the Many EdDSAs"): a signer can
    plant a small-order torsion point in R that only the batch
    randomizers cancel. Clearing the 8-torsion on *both* paths makes
    the accept sets provably identical.

    ``R'`` is compared first: when its encoding equals the signature's
    ``R`` bytes, ``R`` decodes to ``R'`` and the equation holds, so an
    honest signature is accepted without decompressing ``R`` (a
    252-bit exponentiation). Only on a mismatch is ``R`` decoded —
    unless the caller already holds it as ``r_point`` — and the
    equation evaluated; an ``R`` that is not a point rejects. ``s·B``
    comes from the fixed-base window table; ``k·(−A)`` is one 32-step
    chain over the key's eight cached part tables.
    """
    candidate = _point_add(_base_mul(s), _multi_mul(key._neg_terms(k)))
    if _point_compress(candidate) == signature[:32]:
        return True
    if r_point is None:
        try:
            r_point = _point_decompress(signature[:32])
        except CryptoError:
            return False
    diff = _point_add(candidate, _point_negate(r_point))
    return _point_equal(_mul_by_cofactor(diff), _IDENTITY)


def _screen(key: "VerifyKey", signature: bytes) -> Optional[int]:
    """The structural screen both verification paths run up front:
    ``s`` when ``key`` decodes to a point and ``s < L``, else ``None``.
    ``R`` is left encoded; it is decoded only where a point is needed.
    """
    try:
        key.point()
    except CryptoError:
        return None
    s = int.from_bytes(signature[32:], "little")
    return s if s < _L else None


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check an Ed25519 signature. Returns ``False`` on any mismatch.

    Verification is *cofactored* (the RFC 8032 §5.1.7 ``[8][S]B = [8]R
    + [8][k]A'`` variant), matching :func:`verify_batch` exactly — see
    the batch-verification comment block for why cofactorless single
    verification can never agree with a batched check.

    Raises :class:`CryptoError` only for wrong lengths, so callers can
    distinguish "forged" from "not even a signature". The key's tables
    are built for this one check; hold a :class:`VerifyKey` to keep them.
    """
    return VerifyKey(bytes(public)).verify(message, signature)


@dataclass(frozen=True)
class VerifyKey:
    """An Ed25519 verification (public) key.

    The decompressed curve point is computed once per key object and
    cached, so a registry holding long-lived keys pays the square-root
    recovery on first use only — not once per verification.
    """

    key_bytes: bytes

    def __post_init__(self) -> None:
        if len(self.key_bytes) != KEY_LEN:
            raise CryptoError(
                f"public key must be {KEY_LEN} bytes, got {len(self.key_bytes)}"
            )

    def point(self) -> _Point:
        """The decompressed public point, computed once and cached.

        Raises :class:`CryptoError` for encodings that are 32 bytes but
        not a curve point.
        """
        cached = self.__dict__.get("_point")
        if cached is None:
            cached = _point_decompress(self.key_bytes)
            object.__setattr__(self, "_point", cached)
        return cached

    def neg_point(self) -> _Point:
        """``-A``, cached next to the decompressed point.

        Every verification needs the negated public point (the check is
        ``s·B + k·(-A) == R``); caching it here means a long-lived
        registry key negates once, not once per signature.
        """
        cached = self.__dict__.get("_neg_point")
        if cached is None:
            cached = _point_negate(self.point())
            object.__setattr__(self, "_neg_point", cached)
        return cached

    def _neg_terms(self, scalar: int) -> List[_Term]:
        """``scalar·(-A)`` as eight multi-scalar terms of 32 bits.

        ``scalar = Σ 2^(32j)·part_j`` multiplies the fixed bases
        ``2^(32j)·(-A)``, ``j < 8``, whose width-6 odd-multiple tables
        are built on first use and cached with the point: a registry
        key pays their ~350 doublings and additions and eight inversions
        once, not once per check. The terms of a scalar below ``L`` span
        a chain of at most 32 steps.
        """
        tables = self.__dict__.get("_tables")
        if tables is None:
            parts = []
            base = self.neg_point()
            for _ in range(_KEY_PARTS):
                parts.append(_odd_multiples(base, _KEY_WIDTH))
                for _ in range(_PART_BITS):
                    base = _point_double(base)
            tables = tuple(parts)
            object.__setattr__(self, "_tables", tables)
        return [
            ((scalar >> (_PART_BITS * part)) & _PART_MASK, table, _KEY_WIDTH)
            for part, table in enumerate(tables)
        ]

    def verify(self, message: bytes, signature: bytes) -> bool:
        if len(signature) != SIGNATURE_LEN:
            raise CryptoError(
                f"signature must be {SIGNATURE_LEN} bytes, got {len(signature)}"
            )
        s = _screen(self, signature)
        if s is None:
            return False
        k = _challenge(self.key_bytes, message, signature)
        return _check_single(self, signature, s, k)


@dataclass(frozen=True)
class SigningKey:
    """An Ed25519 signing (secret) key, derived from a 32-byte seed.

    The expanded secret scalar, prefix and compressed public key are
    derived once per key object and cached: signing then costs two
    fixed-base window multiplications instead of three generic ones.
    """

    seed: bytes

    def __post_init__(self) -> None:
        if len(self.seed) != KEY_LEN:
            raise CryptoError(f"seed must be {KEY_LEN} bytes, got {len(self.seed)}")

    @classmethod
    def from_deterministic_seed(cls, label: str) -> "SigningKey":
        """Derive a key from a label — simulations must be reproducible."""
        return cls(hashlib.sha256(b"repro-ed25519-seed:" + label.encode()).digest())

    def _expanded(self) -> Tuple[int, bytes, bytes]:
        cached = self.__dict__.get("_expand")
        if cached is None:
            a, prefix = _secret_expand(self.seed)
            public = _point_compress(_base_mul(a))
            cached = (a, prefix, public)
            object.__setattr__(self, "_expand", cached)
        return cached

    def sign(self, message: bytes) -> bytes:
        a, prefix, public = self._expanded()
        return _sign_expanded(a, prefix, public, message)

    def verify_key(self) -> VerifyKey:
        _, _, public = self._expanded()
        return VerifyKey(public)


# --- batch verification -------------------------------------------------
#
# The random-linear-combination check: signatures i with challenge k_i
# all satisfy [8]s_i·B = [8]R_i + [8]k_i·A_i, so for any non-zero
# randomizers z_i the single equation
#
#     [8]( (Σ z_i·s_i)·B − Σ z_i·R_i − Σ (z_i·k_i)·A_i ) = 0
#
# holds for an all-valid batch, while a batch containing any forgery
# fails except with probability ~2^-128 over the choice of z_i. One
# fixed-base multiplication plus one interleaved multi-scalar chain
# replaces n independent verifications. Signatures by the *same* key
# merge their z_i·k_i scalars, so a batch signed by few distinct
# switches pays for few variable-base points.
#
# Both the batched equation and the single check are *cofactored*
# (multiplied by 8 before the identity comparison). This is load-
# bearing, not stylistic: Chalkias et al. ("Taming the Many EdDSAs")
# show cofactorless batch verification cannot match cofactorless
# single verification — a signer can publish (R + T, s) with T a
# small-order torsion point and grind messages until the randomizers
# cancel T (with deterministic z_i that is ~8 tries for z ≡ 0 mod 8),
# making the batch accept a signature the single path rejects. The
# passing batch never bisects, so the divergence would poison the
# verify cache and break batched/sequential verdict parity. Clearing
# the 8-torsion on both paths removes the attack class entirely; the
# randomizers are additionally forced odd so no single member's
# torsion defect can be annihilated by its own z_i even if the
# cofactor multiplication were ever removed.
#
# Randomizers are derived from a domain-separated hash of the batch
# contents — never from ``random`` — so the same evidence always takes
# the same verification path and sharded campaigns stay byte-identical.

_BATCH_DOMAIN = b"repro.crypto/batch-verify/v1"

# A batch member: (public key or key bytes, message, signature).
BatchItem = Tuple[Union[bytes, VerifyKey], bytes, bytes]

# Internal prepared member: (caller index, key, message, signature,
# R point, s scalar, challenge k). R is ``None`` until the member joins
# a group that batches.
_Prepared = Tuple[int, VerifyKey, bytes, bytes, Optional[_Point], int, int]

# Groups below this size settle member by member. A batch pays a fixed
# 128-step chain, eight key terms per distinct signer and an R
# decompression per member that an honest single check skips. Per
# signature (2-core x86-64 host, python 3.11), one batch check beats
# singles from n ≈ 10 over 4 signers and from n ≈ 26 over 20 (n = 16:
# 286 vs 328 µs over 4, 363 vs 324 µs over 20; docs/CRYPTO.md has the
# table). 16 sits between, costing at most ~14 % on either side.
_BATCH_MIN = 16


def _batch_randomizers(members: Sequence[_Prepared]) -> List[int]:
    """Deterministic per-member randomizers ``z_i``.

    A SHA-512 transcript absorbs every member's key, signature and
    challenge scalar (the challenge already binds the message), then
    each index squeezes an independent non-zero 128-bit scalar.
    128 bits keeps the forgery-acceptance probability negligible while
    halving the R-point wNAF chains relative to full-width scalars.
    Every ``z_i`` is forced odd: combined with the cofactored batch
    equation this guarantees ``z_i·T ≠ 0`` for any non-trivial
    small-order ``T``, so a lone member's torsion component can never
    be cancelled by its own randomizer.
    """
    transcript = hashlib.sha512()
    transcript.update(_BATCH_DOMAIN)
    transcript.update(len(members).to_bytes(4, "little"))
    for _, key, _, signature, _, _, k in members:
        transcript.update(key.key_bytes)
        transcript.update(signature)
        transcript.update(k.to_bytes(32, "little"))
    seed = transcript.digest()
    randomizers: List[int] = []
    for index in range(len(members)):
        block = _sha512(
            seed + index.to_bytes(4, "little") + (0).to_bytes(4, "little")
        )
        # Odd — hence non-zero — by construction (see the docstring).
        randomizers.append(int.from_bytes(block[:16], "little") | 1)
    return randomizers


def _check_batch(
    members: Sequence[_Prepared], stats: Optional[Dict[str, int]]
) -> bool:
    """Run the single multi-scalar check over ``members``."""
    if stats is not None:
        stats["batch_checks"] = stats.get("batch_checks", 0) + 1
    randomizers = _batch_randomizers(members)
    merged_s = 0
    key_scalars: Dict[bytes, int] = {}
    keys: Dict[bytes, VerifyKey] = {}
    fresh: List[_Fresh] = []
    for z, (_, key, _, _, r_point, s, k) in zip(randomizers, members):
        merged_s = (merged_s + z * s) % _L
        fresh.append((z, _point_negate(r_point)))
        key_scalars[key.key_bytes] = (key_scalars.get(key.key_bytes, 0) + z * k) % _L
        keys.setdefault(key.key_bytes, key)
    terms: List[_Term] = []
    for key_bytes, scalar in key_scalars.items():
        terms.extend(keys[key_bytes]._neg_terms(scalar))
    candidate = _point_add(_base_mul(merged_s), _multi_mul(terms, fresh))
    # Cofactored, like the single path — see the comment block above.
    return _point_equal(_mul_by_cofactor(candidate), _IDENTITY)


def _resolve_batch(
    members: Sequence[_Prepared],
    results: List[bool],
    stats: Optional[Dict[str, int]],
) -> None:
    """Settle every member's verdict, batching where it pays.

    A group below ``_BATCH_MIN`` settles member by member through
    :func:`_check_single` — the equation ``VerifyKey.verify`` evaluates
    — on its screened ``s`` and challenge, and on its ``R`` if already
    decoded. A larger group's members all carry a decoded ``R``; it is
    checked by one multi-scalar equation. A passing group accepts all
    members at once. A failing group that spans several signers splits
    by signer first, so one bad switch (UC1's rogue) is isolated in one
    step; a failing one-signer group halves. Every ``False`` verdict is
    an exact single-signature decision.
    """
    if len(members) < _BATCH_MIN:
        for index, key, _, signature, r_point, s, k in members:
            if stats is not None:
                stats["single_checks"] = stats.get("single_checks", 0) + 1
            results[index] = _check_single(key, signature, s, k, r_point)
        return
    if _check_batch(members, stats):
        for member in members:
            results[member[0]] = True
        return
    by_signer: Dict[bytes, List[_Prepared]] = {}
    for member in members:
        by_signer.setdefault(member[1].key_bytes, []).append(member)
    if len(by_signer) > 1:
        groups: Sequence[Sequence[_Prepared]] = list(by_signer.values())
    else:
        mid = len(members) // 2
        groups = (members[:mid], members[mid:])
    for group in groups:
        _resolve_batch(group, results, stats)


def verify_batch(
    items: Sequence[BatchItem],
    stats: Optional[Dict[str, int]] = None,
) -> List[bool]:
    """Verify many Ed25519 signatures, with one multi-scalar check
    where there are enough of them.

    Returns one boolean per item, in order. Unlike the single-signature
    :func:`verify` — which raises :class:`CryptoError` for structurally
    malformed inputs — a batch cannot raise on behalf of one member, so
    malformed keys or signatures fold to ``False`` (the same fold the
    memoized verify cache applies). All other inputs reject identically
    to the single path: the screen up front is the single path's
    :func:`_screen` (a decodable key, ``s < L``); ``R`` is decoded only
    for a group that batches, where an ``R`` that is not a point folds
    to ``False``, as :func:`_check_single` rejects it. Small groups and
    failing batches settle by exact single checks (see
    :func:`_resolve_batch`).

    ``stats``, when provided, accumulates ``batch_checks`` (multi-scalar
    equations evaluated) and ``single_checks`` (per-member decisions).
    """
    results: List[bool] = [False] * len(items)
    prepared: List[_Prepared] = []
    for index, (key, message, signature) in enumerate(items):
        if not isinstance(key, VerifyKey):
            try:
                key = VerifyKey(bytes(key))
            except CryptoError:
                continue
        if len(signature) != SIGNATURE_LEN:
            continue
        s = _screen(key, signature)
        if s is None:
            continue
        k = _challenge(key.key_bytes, message, signature)
        prepared.append((index, key, bytes(message), bytes(signature), None, s, k))
    if len(prepared) >= _BATCH_MIN:
        decoded: List[_Prepared] = []
        for index, key, message, signature, _, s, k in prepared:
            try:
                r_point = _point_decompress(signature[:32])
            except CryptoError:
                continue
            decoded.append((index, key, message, signature, r_point, s, k))
        prepared = decoded
    _resolve_batch(prepared, results, stats)
    return results
