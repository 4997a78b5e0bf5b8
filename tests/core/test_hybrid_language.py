"""Tests for the network-aware Copland language: parser, compiler, wire."""

import pytest

from repro.core.compiler import CompiledPolicy, HopDirective, compile_policy_for_path
from repro.core.hybrid_ast import (
    Embedded,
    Forall,
    Guard,
    HybridAt,
    HybridSeq,
    PathStar,
)
from repro.core.hybrid_parser import parse_hybrid_policy
from repro.core.policies import (
    ap1_bank_path_attestation,
    ap2_scanner_audit,
    ap3_path_check,
)
from repro.core.wire import decode_compiled_policy, encode_compiled_policy
from repro.netkat.ast import Test
from repro.pera.config import CompositionMode, DetailLevel
from repro.util.errors import PolicyError


class TestHybridParser:
    def test_simple_guarded_policy(self):
        policy = parse_hybrid_policy(
            "*rp : {switch = s1} |> attest(X) -> !"
        )
        assert policy.relying_party == "rp"
        assert isinstance(policy.body, Guard)
        assert policy.body.test == Test("switch", "s1")
        assert isinstance(policy.body.body, Embedded)

    def test_params_parsed(self):
        policy = parse_hybrid_policy("*bank<n, X> : attest(X)")
        assert policy.params == ("n", "X")

    def test_forall(self):
        policy = parse_hybrid_policy("*rp : forall hop : @hop [attest(X)]")
        assert isinstance(policy.body, Forall)
        assert policy.body.variables == ("hop",)

    def test_path_star(self):
        policy = parse_hybrid_policy(
            "*rp : forall hop, client : (@hop [attest(X) -> !]) "
            "*=> (@client [attest(Y)])"
        )
        assert isinstance(policy.body, Forall)
        assert isinstance(policy.body.body, PathStar)

    def test_seq_arrow(self):
        policy = parse_hybrid_policy(
            "*rp : @s [attest(X) -> !] -+> @Appraiser [appraise -> store]"
        )
        assert isinstance(policy.body, HybridSeq)

    def test_hybrid_at_with_guard_inside(self):
        policy = parse_hybrid_policy(
            "*rp : @s1 [ {port = 2} |> attest(X) ]"
        )
        assert isinstance(policy.body, HybridAt)
        assert isinstance(policy.body.body, Guard)

    def test_plain_copland_embeds(self):
        policy = parse_hybrid_policy(
            "*bank : @ks [av us bmon -> !] -<- @us [bmon us exts -> !]"
        )
        assert isinstance(policy.body, Embedded)

    def test_ap1_parses(self):
        policy = ap1_bank_path_attestation()
        assert policy.relying_party == "bank"
        assert policy.params == ("n", "X")
        assert isinstance(policy.body, Forall)
        assert policy.body.variables == ("hop", "client")
        assert isinstance(policy.body.body, PathStar)

    def test_ap2_parses(self):
        policy = ap2_scanner_audit()
        assert policy.relying_party == "scanner"
        assert isinstance(policy.body, HybridSeq)

    def test_ap3_parses(self):
        policy = ap3_path_check()
        assert policy.params == ("F1", "F2", "Peer1", "Peer2")

    def test_errors(self):
        for bad in [
            "no star",
            "*rp missing colon",
            "*rp : {switch = s1} attest(X)",  # guard without |>
            "*rp : forall : x",
            "*rp : (unbalanced",
        ]:
            with pytest.raises(PolicyError):
                parse_hybrid_policy(bad)


class TestCompiler:
    def test_ap1_compilation(self):
        compiled = compile_policy_for_path(
            ap1_bank_path_attestation(),
            path=["h-src", "s1", "s2", "h-dst"],
            bindings={"client": "h-dst"},
            nonce=b"\x05" * 16,
        )
        assert compiled.relying_party == "bank"
        assert compiled.hop.attest == ("X",)
        assert compiled.hop.sign
        assert compiled.appraiser == "Appraiser"
        assert compiled.terminal_place == "h-dst"
        assert compiled.min_attested_hops == 2

    def test_hop_variable_test_collapses(self):
        # AP1's hop guard (attests = 1) survives; a test on the bound
        # variable itself would collapse to true.
        policy = parse_hybrid_policy(
            "*rp : forall hop : (@hop [ {switch = hop} |> attest(X) -> ! ]) "
            "*=> @client [attest(Y)]"
        )
        compiled = compile_policy_for_path(policy, path=["a", "s", "b"])
        assert compiled.hop.test_text == ""

    def test_binding_substitutes_in_test(self):
        policy = parse_hybrid_policy(
            "*rp : forall hop : (@hop [ {next = client} |> attest(X) ]) "
            "*=> @client [attest(Y)]"
        )
        compiled = compile_policy_for_path(
            policy, path=["a", "s", "b"], bindings={"client": "h-9"}
        )
        assert compiled.hop.test_text == 'next = "h-9"'

    def test_ap3_required_functions(self):
        compiled = compile_policy_for_path(
            ap3_path_check(),
            path=["h1", "s1", "s2", "s3", "h2"],
            bindings={
                "F1": "firewall_v5",
                "F2": "ACL_v3",
                "peer1": "h1",
                "peer2": "h2",
            },
        )
        functions = [f for _, f in compiled.required_functions]
        assert functions[:2] == ["firewall_v5", "ACL_v3"]
        # p and q are collapsed hop variables -> wildcard places.
        assert compiled.required_functions[0][0] == "*"

    def test_out_of_band_flag(self):
        compiled = compile_policy_for_path(
            ap2_scanner_audit(), path=["scanner"], out_of_band=True,
            min_attested_hops=1,
        )
        assert compiled.hop.out_of_band_to == "Appraiser"
        assert compiled.min_attested_hops == 1

    def test_policy_id_depends_on_path_and_nonce(self):
        policy = ap1_bank_path_attestation()
        a = compile_policy_for_path(policy, ["a", "s", "b"], nonce=b"1")
        b = compile_policy_for_path(policy, ["a", "s", "b"], nonce=b"2")
        c = compile_policy_for_path(policy, ["a", "x", "b"], nonce=b"1")
        assert len({a.policy_id, b.policy_id, c.policy_id}) == 3


class TestWireFormat:
    def make_compiled(self, **overrides):
        defaults = dict(
            policy_id="abcd1234",
            relying_party="bank",
            nonce=b"\x07" * 16,
            appraiser="Appraiser",
            hop=HopDirective(
                test_text='switch = "s1"',
                attest=("X", "Y"),
                detail=DetailLevel.CONFIG,
                composition=CompositionMode.TRAFFIC_PATH,
                sign=True,
                out_of_band_to="Appraiser",
            ),
            terminal_place="h-dst",
            required_functions=(("*", "firewall_v5"), ("s2", "ACL_v3")),
            min_attested_hops=3,
        )
        defaults.update(overrides)
        return CompiledPolicy(**defaults)

    def test_round_trip_full(self):
        compiled = self.make_compiled()
        assert decode_compiled_policy(encode_compiled_policy(compiled)) == compiled

    def test_round_trip_minimal(self):
        compiled = self.make_compiled(
            hop=HopDirective(), terminal_place="", required_functions=(),
            nonce=b"",
        )
        assert decode_compiled_policy(encode_compiled_policy(compiled)) == compiled

    def test_absent_policy_returns_none(self):
        assert decode_compiled_policy(b"") is None

    def test_coexists_with_record_stack(self):
        from repro.crypto.keys import KeyPair
        from repro.evidence.nodes import HopEvidence
        from repro.pera.inertia import InertiaClass
        from repro.pera.records import decode_record_stack, encode_record_stack

        compiled = self.make_compiled()
        record = HopEvidence(
            place="s1", measurements=((InertiaClass.PROGRAM, b"\x01" * 32),)
        ).sign_with(KeyPair.generate("s1"))
        body = encode_compiled_policy(compiled) + encode_record_stack([record])
        assert decode_compiled_policy(body) == compiled
        assert decode_record_stack(body) == [record]

    def test_all_detail_and_composition_codes(self):
        for detail in DetailLevel:
            for composition in CompositionMode:
                compiled = self.make_compiled(
                    hop=HopDirective(detail=detail, composition=composition)
                )
                decoded = decode_compiled_policy(encode_compiled_policy(compiled))
                assert decoded.hop.detail is detail
                assert decoded.hop.composition is composition

    def test_round_trip_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        directives = st.builds(
            HopDirective,
            test_text=st.sampled_from(["", "attests = 1", 'switch = "s1"']),
            attest=st.lists(
                st.text(
                    alphabet="ABCXYZ", min_size=1, max_size=4
                ), max_size=3,
            ).map(tuple),
            detail=st.sampled_from(list(DetailLevel)),
            composition=st.sampled_from(list(CompositionMode)),
            sign=st.booleans(),
            out_of_band_to=st.sampled_from(["", "Appraiser"]),
        )
        compiled_policies = st.builds(
            CompiledPolicy,
            policy_id=st.text(alphabet="0123456789abcdef", min_size=1,
                              max_size=16),
            relying_party=st.sampled_from(["bank", "scanner"]),
            nonce=st.binary(max_size=32),
            appraiser=st.sampled_from(["Appraiser", "A2"]),
            hop=directives,
            terminal_place=st.sampled_from(["", "h-dst"]),
            required_functions=st.lists(
                st.tuples(
                    st.sampled_from(["*", "s1", "s2"]),
                    st.sampled_from(["fw_v5", "acl_v3"]),
                ),
                max_size=4,
            ).map(tuple),
            min_attested_hops=st.integers(min_value=0, max_value=64),
        )

        @settings(max_examples=100, deadline=None)
        @given(compiled_policies)
        def check(compiled):
            assert decode_compiled_policy(
                encode_compiled_policy(compiled)
            ) == compiled

        check()

    def test_compiled_ap_policies_round_trip(self):
        for policy, bindings in [
            (ap1_bank_path_attestation(), {"client": "h-dst"}),
            (ap2_scanner_audit(), {}),
            (ap3_path_check(), {"F1": "fw", "F2": "acl",
                                "peer1": "h1", "peer2": "h2"}),
        ]:
            compiled = compile_policy_for_path(
                policy, path=["h1", "s1", "h2"], bindings=bindings,
                nonce=b"\x01" * 16,
            )
            assert decode_compiled_policy(
                encode_compiled_policy(compiled)
            ) == compiled
