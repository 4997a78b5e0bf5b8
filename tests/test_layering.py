"""Layering: the evidence substrate sits below everything that uses it.

``repro.evidence`` holds the one hop-record type the PERA switch
produces and the appraiser decodes (``repro.pera`` only re-exports
from it). That is sound only while the bottom of the stack stays the
bottom: ``repro.util`` < ``repro.crypto`` < ``repro.evidence``, each
importing nothing from ``repro`` but itself and the layers beneath —
at module top level or inside a function.
"""

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
LAYERS = ["util", "crypto", "evidence"]  # bottom first


def _repro_imports(path):
    """Every ``repro.<package>`` a module imports, with line numbers."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
            if node.module == "repro":  # ``from repro import pera``
                names = [f"repro.{alias.name}" for alias in node.names]
        else:
            continue  # relative imports stay inside the package
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1], node.lineno


@pytest.mark.parametrize("layer", LAYERS)
def test_substrate_layers_import_only_downwards(layer):
    allowed = set(LAYERS[: LAYERS.index(layer) + 1])
    modules = sorted((SRC / layer).glob("*.py"))
    assert modules, f"no modules found under repro.{layer}"
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno} imports repro.{package}"
        for path in modules
        for package, lineno in _repro_imports(path)
        if package not in allowed
    ]
    assert not offenders, "\n".join(offenders)


def test_the_checker_sees_local_imports(tmp_path):
    """The walk covers function-local imports, not just the header."""
    module = tmp_path / "m.py"
    module.write_text(
        "import repro.util.tlv\n"
        "def f():\n"
        "    from repro.pera.inertia import DEFAULT_TTLS\n"
        "    from repro import core\n"
    )
    assert [package for package, _ in _repro_imports(module)] == [
        "util", "pera", "core",
    ]


# --- a fleet is assembled once ------------------------------------------------
#
# ``repro.core.fleet`` is the one place a linear attested deployment is
# spelled out (arbitrate, install, the ipv4_lpm /24 route, h-src/h-dst,
# AP1 compiled for the path). Scenario builders, benchmarks and examples
# call it; they do not write the steps out again.

ROOT = SRC.parent.parent
BRING_UP = {"arbitrate", "set_forwarding_pipeline_config"}
#: Files allowed to use some of the verbs, and why.
HAND_WRITTEN_OK = {
    # The tutorial shows the P4Runtime verbs on purpose.
    "examples/quickstart.py": BRING_UP | {"ipv4_lpm route"},
    # A bare P4Runtime endpoint, no switch and no chain to bring up.
    "examples/netkat_attested_policy.py": {"arbitrate"},
    "src/repro/core/relying_party.py": {"compile_policy_for_path"},
    "src/repro/core/fabric.py": {"compile_policy_for_path"},  # per-flow paths
}
DELETED = {
    "_fat_tree_members", "_rogue_configure", "_install_routing",
    "_install_routing_as", "_appraiser_for", "_pera_chain",
    "fat_tree_topology",
}


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _hand_assembly(path):
    """Fleet-assembly steps a module spells out itself, with lines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name in BRING_UP or name == "compile_policy_for_path":
            yield name, node.lineno
        elif name == "TableEntry" and any(
            kw.arg == "table" and getattr(kw.value, "value", None) == "ipv4_lpm"
            for kw in node.keywords
        ):
            yield "ipv4_lpm route", node.lineno
        elif name == "Host" and node.args and getattr(
            node.args[0], "value", None
        ) in ("h-src", "h-dst"):
            yield "chain endpoint", node.lineno


def _identifiers(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        for attr in ("id", "attr", "name"):
            if isinstance(getattr(node, attr, None), str):
                yield getattr(node, attr)


def test_fleet_assembly_is_written_once():
    core = [
        path for path in sorted((SRC / "core").glob("*.py"))
        if path.name != "fleet.py"
    ]
    scripts = sorted((ROOT / "benchmarks").glob("*.py")) + sorted(
        (ROOT / "examples").glob("*.py")
    )
    assert core and scripts
    # AP3 policies and custom topologies are a script's own business.
    script_steps = BRING_UP | {"ipv4_lpm route"}
    offenders = [
        f"{path.relative_to(ROOT)}:{lineno} writes out {step}"
        for path in core + scripts
        for step, lineno in _hand_assembly(path)
        if (path in core or step in script_steps)
        and step not in HAND_WRITTEN_OK.get(
            path.relative_to(ROOT).as_posix(), ()
        )
    ]
    assert not offenders, "\n".join(offenders)
    resurrected = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in set(_identifiers(path)) & DELETED
    ]
    assert not resurrected, "\n".join(resurrected)


def test_the_assembly_guard_sees_a_planted_violation(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def build(switch, sim):\n"
        "    switch.runtime.arbitrate('ctl', 1)\n"
        "    switch.runtime.set_forwarding_pipeline_config('ctl', program)\n"
        "    switch.runtime.write('ctl', TableEntry(\n"
        "        table='ipv4_lpm', keys=(), action='forward', params=(2,)))\n"
        "    sim.bind(Host('h-src', mac=1, ip=1))\n"
        "    compile_policy_for_path(policy, path=[])\n"
        "    switch.runtime.write('ctl', TableEntry(table='acl', keys=()))\n"
        "def _pera_chain(): pass\n"
    )
    found = sorted(_hand_assembly(module), key=lambda found: found[1])
    assert [step for step, _ in found] == [
        "arbitrate", "set_forwarding_pipeline_config", "ipv4_lpm route",
        "chain endpoint", "compile_policy_for_path",
    ]
    assert set(_identifiers(module)) & DELETED == {"_pera_chain"}


# --- no environment knobs in the library --------------------------------------
#
# Configuration reaches ``repro`` as arguments. A module that reads the
# environment makes a run depend on the shell it was started from.

ENV_ACCESS = {"environ", "getenv", "putenv"}


def _environment_access(path):
    """``(name, line)`` for each ``os.environ``/``getenv``/``putenv``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_ACCESS
            and getattr(node.value, "id", None) == "os"
        ):
            yield f"os.{node.attr}", node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENV_ACCESS:
                    yield f"os.{alias.name}", node.lineno


def test_the_library_reads_no_environment():
    offenders = [
        f"{path.relative_to(ROOT)}:{lineno} reads {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, lineno in _environment_access(path)
    ]
    assert not offenders, "\n".join(offenders)


def test_the_environment_guard_sees_a_planted_violation(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "from os import getenv\n"
        "FLAG = os.environ.get('X')\n"
        "os.putenv('X', '1')\n"
        "HERE = os.path.dirname(__file__)\n"
    )
    assert sorted(_environment_access(module), key=lambda found: found[1]) == [
        ("os.getenv", 2), ("os.environ", 3), ("os.putenv", 4),
    ]
