"""Substrate microbenchmarks: the primitives everything else pays for.

Not a paper artifact per se, but the quantity behind every Fig. 3/4
trade-off: what signing, verifying, hashing, and encoding actually
cost in this implementation. The shape assertion mirrors the cost
model: sign and verify are orders of magnitude above hash and codec
operations — which is *why* the evidence cache exists.
"""

import json
import pathlib
import time


from repro.copland.parser import parse_request
from repro.crypto.ed25519 import (
    SigningKey,
    _BATCH_MIN,
    _point_decompress,
    verify_batch,
)
from repro.crypto.hashing import HashChain, digest
from repro.crypto.merkle import MerkleTree
from repro.evidence.codec import decode_hop_body, encode_hop_body
from repro.evidence.nodes import HopEvidence
from repro.pera.inertia import InertiaClass
from repro.util.tlv import Tlv, TlvCodec

from conftest import report, table

_SUMMARY_PATH = pathlib.Path(__file__).parent / "CRYPTO_summary.json"

KEY = SigningKey.from_deterministic_seed("bench")
VERIFY_KEY = KEY.verify_key()
MESSAGE = bytes(range(256))
SIGNATURE = KEY.sign(MESSAGE)

RECORD = HopEvidence(
    place="s1",
    measurements=(
        (InertiaClass.HARDWARE, b"\x01" * 32),
        (InertiaClass.PROGRAM, b"\x02" * 32),
    ),
    sequence=42,
    chain_head=b"\x03" * 32,
).sign_with(
    __import__("repro.crypto.keys", fromlist=["KeyPair"]).KeyPair.generate("s1")
)
RECORD_BYTES = encode_hop_body(RECORD)

AP1_TEXT = (
    "*RP1 <n> : @Switch [attest(Hardware, Program) -> # -> !] "
    "+>+ @Appraiser [appraise -> certify(n) -> ! -> store(n)]"
)


def test_ed25519_sign(benchmark):
    benchmark(lambda: KEY.sign(MESSAGE))


def test_ed25519_verify(benchmark):
    assert benchmark(lambda: VERIFY_KEY.verify(MESSAGE, SIGNATURE))


def test_ed25519_point_decompress_fresh(benchmark):
    """Square-root recovery of the public point from its 32-byte form."""
    benchmark(lambda: _point_decompress(VERIFY_KEY.key_bytes))


def test_ed25519_point_decompress_cached(benchmark):
    """The per-key cached point: what every verify after the first pays."""
    VERIFY_KEY.point()  # prime the cache
    benchmark(VERIFY_KEY.point)


def test_sha256_digest(benchmark):
    benchmark(lambda: digest(MESSAGE, domain="bench"))


def test_hash_chain_extend(benchmark):
    chain = HashChain()
    benchmark(lambda: chain.extend(b"link"))


def test_merkle_build_64(benchmark):
    leaves = [bytes([i]) * 32 for i in range(64)]
    benchmark(lambda: MerkleTree(leaves).root)


def test_hop_record_encode(benchmark):
    benchmark(lambda: encode_hop_body(RECORD))


def test_hop_record_decode(benchmark):
    benchmark(lambda: decode_hop_body(RECORD_BYTES))


def test_tlv_round_trip(benchmark):
    elements = [Tlv(i, bytes(32)) for i in range(8)]
    encoded = TlvCodec.encode(elements)
    benchmark(lambda: TlvCodec.decode(encoded))


def test_copland_parse(benchmark):
    benchmark(lambda: parse_request(AP1_TEXT))


def _time(fn, rounds=200):
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds


# --- batched verification sweep ----------------------------------------

#: The appraisal hot path sees a handful of distinct signers (one per
#: switch on the path) across many records — 4 signers is the realistic
#: shape the per-key scalar merging exploits. The sizes around
#: ``_BATCH_MIN`` show where groups stop settling as singles.
BATCH_SIGNERS = 4
BATCH_SIZES = (1, 8, _BATCH_MIN - 1, _BATCH_MIN, _BATCH_MIN + 1, 64, 512)


def _batch_items(size, signers=BATCH_SIGNERS):
    keys = [
        SigningKey.from_deterministic_seed(f"bench-batch-{i}")
        for i in range(signers)
    ]
    items = []
    for i in range(size):
        signer = keys[i % len(keys)]
        message = MESSAGE + i.to_bytes(4, "little")
        items.append((signer.verify_key(), message, signer.sign(message)))
    # Prime the per-key caches (point, negation, wNAF tables) for both
    # paths: long-lived registry keys are the steady state being
    # modeled, not fresh-key decompression.
    for key, message, signature in items[: len(keys)]:
        assert key.verify(message, signature)
    return items


def _best_of_interleaved(first, second, rounds=3):
    """The best time of each of two callables, timed in turns so that
    both see the same machine speed."""
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for slot, fn in enumerate((first, second)):
            start = time.perf_counter()
            fn()
            best[slot] = min(best[slot], time.perf_counter() - start)
    return best


def test_ed25519_verify_batch_64(benchmark):
    """The timed batched check: 64 signatures, one multi-scalar equation."""
    items = _batch_items(64)
    assert all(benchmark(lambda: verify_batch(items)))


def _sweep_row(label, items):
    """Time ``items`` sequentially and batched: the table row and the
    summary entry."""
    size = len(items)
    sequential_s, batched_s = _best_of_interleaved(
        lambda: [key.verify(m, s) for key, m, s in items],
        lambda: verify_batch(items),
    )
    per_sig_seq = sequential_s / size * 1e6
    per_sig_batch = batched_s / size * 1e6
    speedup = sequential_s / batched_s
    row = {
        "batch": label,
        "sequential µs/sig": round(per_sig_seq, 1),
        "batched µs/sig": round(per_sig_batch, 1),
        "speedup x": round(speedup, 2),
        "batched sigs/sec": round(size / batched_s),
    }
    entry = {
        "sequential_us_per_sig": round(per_sig_seq, 2),
        "batched_us_per_sig": round(per_sig_batch, 2),
        "speedup": round(speedup, 2),
        "batched_sigs_per_sec": round(size / batched_s, 1),
    }
    return row, entry


def test_ed25519_batch_sweep(benchmark):
    """Per-signature cost of batched vs sequential verification.

    Sweeps batch sizes 1, 8, ``_BATCH_MIN`` ± 1, 64 and 512 (4 distinct
    signers, the path-appraisal shape), the distinct-key worst case at
    64, where no per-key scalar merging is possible, and a
    harvest-sized queue of 1280 over 20 signers (the fat-tree
    campaign's one in-band flush, whose ``R`` terms are summed by
    buckets). Curves land in ``extra_info`` and in
    ``CRYPTO_summary.json`` for CI artifact upload. The gates: no row
    is slower per signature than sequential ``VerifyKey.verify``, and
    at 512 over 4 signers and 1280 over 20 batching stays clearly
    cheaper.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    summary = {"signers": BATCH_SIGNERS, "sizes": {}}
    for size in BATCH_SIZES:
        row, entry = _sweep_row(size, _batch_items(size))
        rows.append(row)
        summary["sizes"][str(size)] = entry
        benchmark.extra_info[f"batch_{size}_us_per_sig"] = row["batched µs/sig"]
        benchmark.extra_info[f"batch_{size}_speedup"] = row["speedup x"]

    # Distinct-key worst case: every signature under its own key, so
    # the A-point scalars cannot merge — the floor of the optimization.
    row, entry = _sweep_row("64 (distinct keys)", _batch_items(64, signers=64))
    rows.append(row)
    del entry["batched_sigs_per_sec"]
    summary["distinct_keys_64"] = entry
    benchmark.extra_info["batch_64_distinct_speedup"] = row["speedup x"]

    row, entry = _sweep_row("1280 (20 signers)", _batch_items(1280, signers=20))
    rows.append(row)
    summary["signers_20_1280"] = entry
    benchmark.extra_info["batch_1280_20_signers_us_per_sig"] = row["batched µs/sig"]
    benchmark.extra_info["batch_1280_20_signers_speedup"] = row["speedup x"]

    report("Batched Ed25519 verification sweep", table(rows))
    with _SUMMARY_PATH.open("w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # verify_batch is never slower per signature than sequential
    # verification. Below ``_BATCH_MIN`` both run the same single check,
    # so the ratio is 1.0 up to timing noise: four interleaved readings
    # (2-core x86 host, python 3.11) put the lowest row at 0.98, and
    # batching a group of 2 or 4 reads 0.56 or 0.70.
    speedups = [row["speedup x"] for row in rows]
    assert min(speedups) >= 0.9, rows
    # Where batches are large, batching stays clearly cheaper. The
    # divisor halved when the single check began comparing R's encoding
    # first on a 32-step chain (about 690 → 330 µs per signature), so
    # 512 over 4 signers reads 2.01–2.09× and 1280 over 20 reads
    # 2.10–2.13× in four readings, where they read ~4.1× and ~4.3×. Each
    # threshold is 23 % below the lower reading, the rule this gate's
    # earlier thresholds were set by.
    assert summary["sizes"]["512"]["speedup"] >= 1.55, rows
    assert summary["signers_20_1280"]["speedup"] >= 1.6, rows


def test_substrate_report(benchmark):
    # Register as a benchmark so the reproduced table still prints
    # under --benchmark-only; the real work follows un-timed.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    VERIFY_KEY.point()  # prime the per-key point cache
    timings = {
        "ed25519 sign": _time(lambda: KEY.sign(MESSAGE), rounds=20),
        "ed25519 verify": _time(
            lambda: VERIFY_KEY.verify(MESSAGE, SIGNATURE), rounds=20
        ),
        "point decompress (fresh)": _time(
            lambda: _point_decompress(VERIFY_KEY.key_bytes), rounds=50
        ),
        "point decompress (cached)": _time(VERIFY_KEY.point, rounds=2000),
        "sha256 digest (256B)": _time(lambda: digest(MESSAGE)),
        "hop record encode": _time(lambda: encode_hop_body(RECORD)),
        "hop record decode": _time(lambda: decode_hop_body(RECORD_BYTES)),
    }
    rows = [
        {"operation": name, "µs/op": round(seconds * 1e6, 1)}
        for name, seconds in timings.items()
    ]
    report("Substrate: primitive operation costs", table(rows))
    # The cost-model shape: signing dwarfs hashing and codec work.
    assert timings["ed25519 sign"] > 50 * timings["sha256 digest (256B)"]
    assert timings["ed25519 verify"] > timings["sha256 digest (256B)"]
    # The point cache: long-lived registry keys skip the square-root
    # recovery on every verify after the first.
    assert (
        timings["point decompress (cached)"]
        < timings["point decompress (fresh)"] / 10
    )
