"""Tests for telemetry wiring: defaults, collectors, end-to-end runs."""

from repro.telemetry import NULL_TELEMETRY, Telemetry


class TestDefaultResolution:
    def test_default_is_null_without_env(self):
        """Nothing passed means the null object, for each of the three
        constructors that take ``telemetry=``. Nothing can change that
        default: there is no installed one, and no module reads the
        environment (``tests/test_layering.py``)."""
        from repro.core.appraisal import PathAppraisalPolicy, PathAppraiser
        from repro.crypto.keys import KeyRegistry
        from repro.net.simulator import Simulator
        from repro.net.topology import linear_topology
        from repro.ra.appraiser import AppraisalPolicy, Appraiser

        built = [
            Simulator(linear_topology(1)),
            PathAppraiser("a", PathAppraisalPolicy(anchors=KeyRegistry())),
            Appraiser("a", KeyRegistry(), AppraisalPolicy()),
        ]
        for instance in built:
            assert instance.telemetry is NULL_TELEMETRY
        assert not NULL_TELEMETRY.active


class TestGatedAccessors:
    def test_inactive_hands_out_nulls(self):
        tel = Telemetry(active=False)
        tel.counter("x").inc()
        tel.gauge("y").set(1)
        tel.histogram("z").observe(1.0)
        with tel.span("w"):
            pass
        assert len(tel.metrics) == 0
        assert len(tel.spans) == 0

    def test_active_registers(self):
        tel = Telemetry()
        tel.counter("x").inc()
        with tel.span("w"):
            pass
        assert len(tel.metrics) == 1
        assert len(tel.spans) == 1

    def test_null_telemetry_is_inert(self):
        NULL_TELEMETRY.counter("x").inc(100)
        assert len(NULL_TELEMETRY.metrics) == 0


class TestSimulatorIntegration:
    def test_explicit_telemetry_collects_at_run_end(self):
        from repro.net.headers import ip_to_int
        from repro.net.host import Host
        from repro.net.simulator import Simulator
        from repro.net.topology import Topology

        topo = Topology()
        topo.add_node("h1", kind="host")
        topo.add_node("h2", kind="host")
        topo.add_link("h1", 1, "h2", 1)
        tel = Telemetry()
        sim = Simulator(topo, telemetry=tel)
        h1 = Host("h1", mac=1, ip=ip_to_int("10.0.0.1"))
        h2 = Host("h2", mac=2, ip=ip_to_int("10.0.0.2"))
        sim.bind(h1)
        sim.bind(h2)
        h1.send_udp(dst_mac=2, dst_ip=h2.ip, src_port=1, dst_port=2)
        sim.run()

        counters = {
            k: v for k, v in
            tel.metrics.snapshot()["counters"].items()
        }
        assert counters["net.link.tx_packets{link=h1:1->h2:1}"] == 1.0
        gauges = tel.metrics.snapshot()["gauges"]
        assert gauges["net.sim.packets_transmitted"] == 1.0
        assert gauges["net.sim.packets_dropped"] == 0.0

    def test_disabled_telemetry_records_nothing(self):
        from repro.net.simulator import Simulator
        from repro.net.topology import linear_topology

        sim = Simulator(linear_topology(1))  # nothing passed: null
        assert sim.telemetry is NULL_TELEMETRY
        sim.run()
        assert len(NULL_TELEMETRY.metrics) == 0


class TestUseCaseEndToEnd:
    """Acceptance: a UC2 run (the chain ``run_path_authentication``
    builds, home path and unknown path) observed through one explicit
    ``Telemetry`` yields per-switch evidence counters, pipeline-stage
    spans, verdict counters and the verify-cache hit rate. Campaigns
    under the sharded runner carry a private ``Telemetry`` instead
    (``result.sharded.telemetry``)."""

    def test_uc2_run_is_fully_observed(self):
        from repro.core.fleet import attested_chain
        from repro.net.simulator import Simulator
        from repro.net.topology import linear_topology
        from repro.pisa.programs import ipv4_forwarding_program
        from repro.pera.config import CompositionMode, EvidenceConfig
        from repro.telemetry import run_bundle

        tel = Telemetry()

        def path_authentication(known):
            sim = Simulator(linear_topology(2), telemetry=tel)
            chain = attested_chain(
                sim,
                [ipv4_forwarding_program() for _ in range(2)],
                config=EvidenceConfig(composition=CompositionMode.CHAINED),
            )
            appraiser = chain.appraiser(known=known, telemetry=tel)
            policy, shim = chain.ap1()
            packet = chain.probe(sim, shim, b"login-attempt", 4000, 443)
            return appraiser.appraise_packet(packet, compiled=policy)

        home = path_authentication(known=None)
        away = path_authentication(known=1)
        assert home.accepted and not away.accepted

        doc = run_bundle(tel)["runtime"]
        gauges = doc["metrics"]["gauges"]
        # Per-switch evidence-block gauges for both chain switches.
        for switch in ("s1", "s2"):
            assert gauges[f"pera.measurements_taken{{switch={switch}}}"] > 0
            assert gauges[f"pera.records_created{{switch={switch}}}"] > 0
            assert gauges[f"pera.signatures_produced{{switch={switch}}}"] > 0
            assert f"pera.cache.hit_rate{{switch={switch}}}" in gauges
        # The shared memoized-verification cache is summarized too.
        assert "evidence.verify_cache.hit_rate" in gauges
        # Appraisal verdicts were counted with their outcomes.
        counters = doc["metrics"]["counters"]
        accepted = sum(
            v for k, v in counters.items()
            if k.startswith("core.path_verdicts{accepted=True")
        )
        rejected = sum(
            v for k, v in counters.items()
            if k.startswith("core.path_verdicts{accepted=False")
        )
        assert accepted > 0 and rejected > 0
        # Pipeline stages were spanned per switch track.
        span_names = {s["name"] for s in doc["spans"]}
        assert {"pisa.parse", "pisa.stage", "pisa.deparse",
                "pera.attest", "pera.sign", "core.appraise"} <= span_names
        tracks = {s["track"] for s in doc["spans"]}
        assert {"s1", "s2"} <= tracks
