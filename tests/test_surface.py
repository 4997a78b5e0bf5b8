"""Surface census: every public name in ``repro`` has a user.

A public top-level name (``def``, ``class`` or assignment) or public
method under ``src/repro`` must be referenced from ``src/``,
``benchmarks/`` or ``examples/`` — or sit in :data:`ALLOWED` with a
one-line reason tied to the paper or a ROADMAP item. Tests do not
count as users: a name only tests reach is surface nobody runs.

What counts as a use:

- an AST ``Name``, ``Attribute`` or ``ImportFrom`` outside the name's
  own body; a re-export (an ``ImportFrom`` in an ``__init__.py``, or
  an entry of ``__all__``) is not a use;
- a string literal equal to the name or ending in ``.name``
  (``getattr(sim, "add_barrier_hook")``, the ledger tracer's
  ``"SigningKey.verify_key"`` targets);
- for a method, its attribute name used anywhere, so an override
  reached through base-class dispatch counts.

An allow-list entry for a class covers its methods too. An entry goes
stale — and fails the suite — once its name is gone or has gained a
user, or once a ``ROADMAP <n>`` its reason cites is no longer listed
under ``## Open items`` in ROADMAP.md, or a ``ROADMAP <n>(x)`` (or
``<n>x``) it cites is a sub-item that item strikes through as done
(``~~(x)``).
"""

import ast
import functools
import pathlib
import re
from collections import defaultdict

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parent.parent
USER_DIRS = ("src", "benchmarks", "examples")

#: Public names with no user in src/benchmarks/examples, and why they stay.
ALLOWED = {
    "repro.copland.types.infer_evidence_type":
        "ROADMAP 6: the copland.types ≡ copland.vm link its semantics builds on",
    "repro.copland.types.evidence_inhabits": "ROADMAP 6: as infer_evidence_type",
    "repro.copland.types.count_signatures": "ROADMAP 6: as infer_evidence_type",
    "repro.copland.types.signing_places": "ROADMAP 6: as infer_evidence_type",
    "repro.core.chaos.chaos_alert_coverage":
        "ROADMAP 10(b): does a rule raise within two windows of each fault "
        "family (docs/MONITORING.md)",
    "repro.core.chaos.standard_chaos_rules":
        "ROADMAP 10(b): the rule set chaos_alert_coverage scores; the "
        "chaos run-signature golden pins its alerts",
    "repro.core.policies.ap2_scanner_audit": "Table 1 AP2, the UC4 scanner audit",
    "repro.core.relying_party.RelyingParty.lint":
        "ROADMAP 9(c)(i): the pre-flight check the fail-early path test joins",
    "repro.core.usecases.run_ap1_complete":
        "Table 1 AP1, reproduced in tests/core/test_usecase_outputs.py",
    "repro.crypto.ed25519.public_key_bytes":
        "RFC 8032 key derivation, checked by the §7.1 vectors and the "
        "OpenSSL differential",
    "repro.crypto.pseudonym.PseudonymAuthority":
        "paper footnotes 1-2: per-user pseudonyms an auditor can lift",
    "repro.faults.plan.FaultPlan.strip_evidence":
        "ROADMAP 10(a): the on-the-wire strip attack of the catalogue",
    "repro.faults.plan.FaultPlan.tamper_evidence":
        "ROADMAP 10(a): the on-the-wire tamper attack of the catalogue",
    "repro.net.controller.RoutingController.provision":
        "ROADMAP 9(a): installs the ipv4_lpm entries dataplane_policy "
        "reads back, on any topology",
    "repro.net.packet.Packet.tcp_packet":
        "ROADMAP 5(b): TCP packets for the parser/deparser round trip",
    "repro.net.routing.FlowletTable.serial_of":
        "ROADMAP 5(c): the flowlet state a FlowletTable model checks",
    "repro.net.topology.ring_topology":
        "ROADMAP 9(b): a cyclic topology for reachability queries",
    "repro.netkat.equivalence.implies": "ROADMAP 9(b): the enumerative oracle",
    "repro.netkat.fdd.eval_flow_rules": "ROADMAP 9(b): FDD-compiled packet sets",
    "repro.netkat.parser.parse_policy":
        "ROADMAP 9(b): policies as text for the symbolic decision",
    "repro.netkat.reachability.forwarding_hop_policy":
        "ROADMAP 9(a): replaced by dataplane_policy there",
    "repro.netkat.reachability.reachable": "ROADMAP 9(b): the enumerative oracle",
    "repro.netkat.reachability.reachable_set": "ROADMAP 9(b): the enumerative oracle",
    "repro.netkat.reachability.topology_policy":
        "ROADMAP 9(a): the topology t of (p ; t)*",
    "repro.pera.sampling.Sampler.sample_rate":
        "ROADMAP 10(c): the 1-in-N rate of the closed-form miss probability",
    "repro.pisa.pipeline.Pipeline.add_register":
        "Fig. 4 Prog. State: declares the registers measure_state digests",
    "repro.pisa.runtime.P4Runtime.delete":
        "P4Runtime DELETE; ROADMAP 10(a) schedules rogue P4Runtime writes",
    "repro.pisa.runtime.P4Runtime.master":
        "P4Runtime arbitration, which the UC1 Athens attacker wins",
    "repro.pisa.runtime.P4Runtime.read_entries":
        "ROADMAP 9(a) reads installed entries through it",
    "repro.pisa.runtime.P4Runtime.read_groups":
        "ROADMAP 9(a) reads installed groups through it",
    "repro.pisa.runtime.P4Runtime.subscribe_digest":
        "P4Runtime digest stream, the controller end of emit_digest",
    "repro.telemetry.audit.AuditJournal.for_trace":
        "ROADMAP 5(d): one packet's journal, where a mutated signed byte "
        "must raise exactly one check.failed",
    "repro.telemetry.health.HealthReport.first_raise_window":
        "ROADMAP 10(b): detection latency in sample windows",
    "repro.telemetry.schema.validate_strict":
        "guards docs/schemas/ in tier-1 CI, which installs no jsonschema: "
        "its subset validator runs alone there",
    "repro.util.clock.SimClock.advance":
        "ROADMAP 5(c): moves sim time past inertia TTLs in cache models",
}


def _is_all(node):
    targets = node.targets if isinstance(node, ast.Assign) else [
        getattr(node, "target", None)
    ]
    return any(getattr(target, "id", None) == "__all__" for target in targets)


def _uses(tree, is_init):
    """``(name, line)`` for every reference a module makes."""
    skip = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and _is_all(node):
            skip.update(id(sub) for sub in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and not is_init:
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.rsplit(".", 1)[-1]
            if name.isidentifier():
                yield name, node.lineno


def _definitions(module, tree):
    """``(qualname, name, first line, last line)`` of public definitions."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield f"{module}.{name}", name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not sub.name.startswith("_"):
                    yield (
                        f"{module}.{node.name}.{sub.name}", sub.name,
                        sub.lineno, sub.end_lineno,
                    )


@functools.lru_cache(maxsize=None)
def census(root):
    """``(defined, unreferenced)`` qualified names under ``root/src/repro``."""
    uses = defaultdict(list)
    defined = []
    for base in USER_DIRS:
        for path in sorted((root / base).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, line in _uses(tree, path.name == "__init__.py"):
                uses[name].append((path, line))
            parts = path.relative_to(root / base).with_suffix("").parts
            if base == "src" and parts[0] == "repro":
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                module = ".".join(parts)
                defined.extend(
                    (definition, path) for definition in _definitions(module, tree)
                )
    unreferenced = [
        qualname
        for (qualname, name, first, last), path in defined
        if all(
            where == path and first <= line <= last
            for where, line in uses.get(name, ())
        )
    ]
    return frozenset(q for (q, *_), _ in defined), frozenset(unreferenced)


def _allowed(qualname, allowed):
    return qualname in allowed or qualname.rsplit(".", 1)[0] in allowed


def stale_entries(allowed, defined, unreferenced):
    """Allow-list entries whose name is gone or has gained a user."""
    return sorted(
        f"{name}: " + ("no longer defined" if name not in defined else "now referenced")
        for name in allowed
        if name not in defined or name not in unreferenced
    )


def test_every_public_name_has_a_user():
    _, unreferenced = census(ROOT)
    offenders = sorted(q for q in unreferenced if not _allowed(q, ALLOWED))
    assert not offenders, (
        "public names referenced only from tests (or nowhere) — delete "
        "them, or allow-list them with a reason:\n  " + "\n  ".join(offenders)
    )


def test_allow_list_has_no_stale_entries():
    assert all(reason.strip() for reason in ALLOWED.values())
    assert not stale_entries(ALLOWED, *census(ROOT))


def _open_section(text):
    return text.split("\n## Open items", 1)[1].split("\n## ", 1)[0]


def open_roadmap_items(text):
    """Item numbers listed under ``## Open items`` in ROADMAP.md."""
    return {
        int(n) for n in re.findall(r"^(\d+)\. \*\*", _open_section(text), re.M)
    }


def done_sub_items(text):
    """``(item, letter)`` for each ``~~(letter)`` an open item strikes."""
    items = re.split(r"^(\d+)\. \*\*", _open_section(text), flags=re.M)[1:]
    return {
        (int(number), letter)
        for number, body in zip(items[::2], items[1::2])
        for letter in re.findall(r"~~\(([a-z])\)", body)
    }


def stale_citations(allowed, roadmap):
    """Reasons citing an item that is not open, or a done sub-item."""
    open_items = open_roadmap_items(roadmap)
    done = done_sub_items(roadmap)
    return sorted(
        f"{name}: ROADMAP {number}{paren or bare}"
        for name, reason in allowed.items()
        for number, paren, bare in re.findall(
            r"ROADMAP (\d+)(?:\(([a-z])\)|([a-z])\b)?", reason
        )
        if int(number) not in open_items
        or (int(number), paren or bare) in done
    )


def test_allow_list_cites_only_open_roadmap_items():
    assert not stale_citations(ALLOWED, (ROOT / "ROADMAP.md").read_text())


def test_the_citation_check_sees_a_planted_violation():
    roadmap = (
        "# ROADMAP\n\n## Open items\n\n"
        "4. **Crypto.** What is left:\n"
        "   ~~(a) *Vectors.*~~ Done.\n"
        "   (b) *Backend.*\n"
        "5. **Models.**\n"
        "   (a) *Open.*\n"
        "\n## Decided, not open\n\n"
        "6. **Closed.** ~~(b)~~\n"
    )
    assert done_sub_items(roadmap) == {(4, "a")}
    assert stale_citations({
        "m.done": "ROADMAP 4(a): struck through",
        "m.bare": "the vectors (ROADMAP 4a)",
        "m.open_sub": "ROADMAP 4(b): open",
        "m.other_item": "ROADMAP 5(a): item 4's strike stays in item 4",
        "m.closed": "ROADMAP 6: not under Open items",
        "m.prose": "ROADMAP 5 reads no letter from prose",
    }, roadmap) == [
        "m.bare: ROADMAP 4a", "m.closed: ROADMAP 6", "m.done: ROADMAP 4a",
    ]


def _tree(tmp_path, files):
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_the_census_sees_a_planted_violation(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "from repro.m import orphan\n__all__ = ['orphan']\n",
        "src/repro/m.py": (
            "LIMIT = 3\n"
            "def orphan():\n    return orphan()\n"
            "def used():\n    pass\n"
            "def by_name():\n    pass\n"
            "class Thing:\n"
            "    def run(self):\n        pass\n"
            "    def idle(self):\n        pass\n"
        ),
        "examples/e.py": (
            "from repro.m import used, Thing\n"
            "Thing().run()\n"
            "HOOK = 'repro.m.by_name'\n"
        ),
    })
    defined, unreferenced = census(root)
    assert "repro.m.Thing.idle" in defined
    assert unreferenced == {"repro.m.LIMIT", "repro.m.orphan", "repro.m.Thing.idle"}
    assert stale_entries(
        {"repro.m.orphan": "kept", "repro.m.used": "kept", "repro.m.gone": "kept"},
        defined, unreferenced,
    ) == ["repro.m.gone: no longer defined", "repro.m.used: now referenced"]
