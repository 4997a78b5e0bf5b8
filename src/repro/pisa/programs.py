"""A library of canned dataplane programs.

These play the roles the paper's narrative names: ``firewall_v5.p4``,
``ACL_v3.p4`` (use case UC1), plain forwarding, a traffic scanner
(UC4), and the Athens-affair rogue variant that silently clones
traffic to an exfiltration port. Each is a :class:`DataplaneProgram`,
so each has a distinct measurement — the property every experiment
leans on.
"""

from __future__ import annotations


from repro.net.headers import ETHERTYPE_IPV4, IPPROTO_TCP, IPPROTO_UDP, RA_UDP_PORT
from repro.pisa.actions import (
    Action,
    Primitive,
    Step,
    drop_action,
    ecmp_select_action,
    forward_action,
    noop_action,
)
from repro.pisa.parser_engine import ACCEPT, FieldExtract, ParserSpec, ParserState
from repro.pisa.program import DataplaneProgram, TableSpec


def standard_parser() -> ParserSpec:
    """Ethernet → IPv4 → {UDP, TCP}; UDP on the RA port → RA shim."""
    eth = ParserState(
        name="parse_eth",
        header="eth",
        fields=(
            FieldExtract("dst", 48),
            FieldExtract("src", 48),
            FieldExtract("ethertype", 16),
        ),
        select_field="eth.ethertype",
        transitions=((ETHERTYPE_IPV4, "parse_ipv4"),),
        default_next=ACCEPT,
    )
    ipv4 = ParserState(
        name="parse_ipv4",
        header="ipv4",
        fields=(
            FieldExtract("version_ihl", 8),
            FieldExtract("dscp_ecn", 8),
            FieldExtract("total_length", 16),
            FieldExtract("identification", 16),
            FieldExtract("flags_frag", 16),
            FieldExtract("ttl", 8),
            FieldExtract("protocol", 8),
            FieldExtract("checksum", 16),
            FieldExtract("src", 32),
            FieldExtract("dst", 32),
        ),
        select_field="ipv4.protocol",
        transitions=((IPPROTO_UDP, "parse_udp"), (IPPROTO_TCP, "parse_tcp")),
        default_next=ACCEPT,
    )
    udp = ParserState(
        name="parse_udp",
        header="udp",
        fields=(
            FieldExtract("src_port", 16),
            FieldExtract("dst_port", 16),
            FieldExtract("length", 16),
            FieldExtract("checksum", 16),
        ),
        select_field="udp.dst_port",
        transitions=((RA_UDP_PORT, "parse_ra"),),
        default_next=ACCEPT,
    )
    tcp = ParserState(
        name="parse_tcp",
        header="tcp",
        fields=(
            FieldExtract("src_port", 16),
            FieldExtract("dst_port", 16),
            FieldExtract("seq", 32),
            FieldExtract("ack", 32),
            FieldExtract("offset_flags", 16),
            FieldExtract("window", 16),
            FieldExtract("checksum", 16),
            FieldExtract("urgent", 16),
        ),
        default_next=ACCEPT,
    )
    ra = ParserState(
        name="parse_ra",
        header="ra",
        fields=(
            FieldExtract("magic", 16),
            FieldExtract("version", 8),
            FieldExtract("flags", 8),
            FieldExtract("body_length", 16),
            FieldExtract("hop_count", 16),
        ),
        default_next=ACCEPT,
    )
    return ParserSpec(states=(eth, ipv4, udp, tcp, ra), start="parse_eth")


def ipv4_forwarding_program(
    name: str = "router", version: str = "v1"
) -> DataplaneProgram:
    """LPM forwarding on ``ipv4.dst`` — the minimal useful dataplane."""
    return DataplaneProgram(
        name=name,
        version=version,
        parser=standard_parser(),
        tables=(
            TableSpec(
                name="ipv4_lpm",
                key_fields=("ipv4.dst",),
                key_kinds=("lpm",),
                allowed_actions=("forward", "drop", "no_op"),
                default_action="drop",
            ),
        ),
        actions=(forward_action(), drop_action(), noop_action()),
    )


def fabric_multipath_program(
    name: str = "fabric", version: str = "v1"
) -> DataplaneProgram:
    """Multipath LPM forwarding for datacenter fabrics.

    Like :func:`ipv4_forwarding_program` but the LPM table may also
    resolve to ``ecmp_select``, whose group id references a next-hop
    *set* installed with
    :meth:`repro.pisa.runtime.P4Runtime.write_group` — the program the
    fat-tree campaign attests on every switch.
    """
    return DataplaneProgram(
        name=name,
        version=version,
        parser=standard_parser(),
        tables=(
            TableSpec(
                name="ipv4_lpm",
                key_fields=("ipv4.dst",),
                key_kinds=("lpm",),
                allowed_actions=("forward", "ecmp_select", "drop", "no_op"),
                default_action="drop",
            ),
        ),
        actions=(
            forward_action(),
            ecmp_select_action(),
            drop_action(),
            noop_action(),
        ),
    )


def fabric_rogue_program(
    name: str = "fabric", base_version: str = "v1"
) -> DataplaneProgram:
    """A compromised fabric switch: multipath forwarding plus intercept.

    Same parser, LPM table, name and version as
    :func:`fabric_multipath_program`, with a hidden ``intercept``
    table cloning matched traffic to an exfiltration port — the
    Athens-affair move replayed inside a datacenter pod. Only the
    program measurement gives it away.
    """
    clone_to = Action(
        "clone_to",
        (Step(Primitive.CLONE, ("$0",)),),
        param_count=1,
    )
    genuine = fabric_multipath_program(name=name, version=base_version)
    return DataplaneProgram(
        name=name,
        version=base_version,
        parser=genuine.parser,
        tables=genuine.tables
        + (
            TableSpec(
                name="intercept",
                key_fields=("ipv4.src",),
                key_kinds=("ternary",),
                allowed_actions=("clone_to", "no_op"),
                default_action="no_op",
            ),
        ),
        actions=genuine.actions + (clone_to,),
    )


def firewall_program(version: str = "v5") -> DataplaneProgram:
    """The paper's ``firewall_v5.p4``: ternary ACL, then LPM forwarding."""
    return DataplaneProgram(
        name="firewall",
        version=version,
        parser=standard_parser(),
        tables=(
            TableSpec(
                name="acl",
                key_fields=("ipv4.src", "ipv4.dst", "ipv4.protocol"),
                key_kinds=("ternary", "ternary", "ternary"),
                allowed_actions=("drop", "no_op"),
                default_action="no_op",
            ),
            TableSpec(
                name="ipv4_lpm",
                key_fields=("ipv4.dst",),
                key_kinds=("lpm",),
                allowed_actions=("forward", "drop"),
                default_action="drop",
            ),
        ),
        actions=(forward_action(), drop_action(), noop_action()),
    )


def acl_program(version: str = "v3") -> DataplaneProgram:
    """The paper's ``ACL_v3.p4`` appliance program."""
    return DataplaneProgram(
        name="ACL",
        version=version,
        parser=standard_parser(),
        tables=(
            TableSpec(
                name="acl",
                key_fields=("ipv4.src", "ipv4.dst"),
                key_kinds=("ternary", "ternary"),
                allowed_actions=("forward", "drop", "no_op"),
                default_action="no_op",
            ),
            TableSpec(
                name="ipv4_lpm",
                key_fields=("ipv4.dst",),
                key_kinds=("lpm",),
                allowed_actions=("forward", "drop"),
                default_action="drop",
            ),
        ),
        actions=(forward_action(), drop_action(), noop_action()),
    )


def scanner_program(version: str = "v1") -> DataplaneProgram:
    """UC4's traffic scanner: count suspected C2 flows, punt matches.

    A ternary table fingerprints traffic patterns (the paper's malware
    command-and-control characterisation) and both counts and punts
    matching packets; everything else forwards normally.
    """
    count_and_punt = Action(
        "count_and_punt",
        (
            Step(Primitive.COUNT, ("c2_hits", "$0")),
            Step(Primitive.TO_CPU),
        ),
        param_count=1,
    )
    return DataplaneProgram(
        name="scanner",
        version=version,
        parser=standard_parser(),
        tables=(
            TableSpec(
                name="c2_patterns",
                key_fields=("ipv4.dst", "udp.dst_port"),
                key_kinds=("ternary", "ternary"),
                allowed_actions=("count_and_punt", "no_op"),
                default_action="no_op",
            ),
            TableSpec(
                name="ipv4_lpm",
                key_fields=("ipv4.dst",),
                key_kinds=("lpm",),
                allowed_actions=("forward", "drop"),
                default_action="drop",
            ),
        ),
        actions=(forward_action(), drop_action(), noop_action(), count_and_punt),
    )


def athens_rogue_program(base_version: str = "v5") -> DataplaneProgram:
    """The Athens-affair rogue variant of the firewall.

    Identical tables and parser to :func:`firewall_program`, plus a
    hidden ``intercept`` table whose action *clones matched traffic to
    an exfiltration port* — the paper's description of the attack
    ("duplicate digitized voice data streams ... and direct the
    duplicate streams to other cellular phones"). Its measurement
    necessarily differs from the genuine firewall's, which is what UC1
    detects.

    The version string is kept identical to the genuine program's: the
    attacker is not so obliging as to bump it.
    """
    clone_to = Action(
        "clone_to",
        (Step(Primitive.CLONE, ("$0",)),),
        param_count=1,
    )
    genuine = firewall_program(version=base_version)
    return DataplaneProgram(
        name="firewall",
        version=base_version,
        parser=genuine.parser,
        tables=genuine.tables
        + (
            TableSpec(
                name="intercept",
                key_fields=("ipv4.src",),
                key_kinds=("ternary",),
                allowed_actions=("clone_to", "no_op"),
                default_action="no_op",
            ),
        ),
        actions=genuine.actions + (clone_to,),
    )
