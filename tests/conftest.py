"""Hypothesis profiles for the test suite.

``default`` is what tier-1 runs: hypothesis's stock example budget, so
the suite keeps its time budget. ``nightly`` is the deeper search the
scheduled CI job runs over the verifier stack and the health engine::

    python -m pytest --hypothesis-profile=nightly tests/crypto tests/evidence \
        tests/pera tests/test_fuzz_decoders.py tests/core/test_evidence_block.py \
        tests/telemetry/test_health_model.py

A test that pins its own ``max_examples`` keeps it under either
profile; the stateful models and every test that does not are the ones
``nightly`` deepens.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=100)
settings.register_profile(
    "nightly", max_examples=1000, stateful_step_count=50, deadline=None
)
