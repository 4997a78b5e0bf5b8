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
