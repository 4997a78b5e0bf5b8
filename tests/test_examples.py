"""Every example script must run clean — examples are documentation.

Each runs in a subprocess with a real interpreter, so import errors,
API drift and assertion failures in examples fail CI rather than
rotting silently.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[script.stem for script in EXAMPLES]
)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script.name} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script.name} printed nothing"


def test_examples_exist():
    assert len(EXAMPLES) >= 8
    assert (EXAMPLES_DIR / "quickstart.py") in EXAMPLES


def test_quickstart_exports_valid_chrome_trace(tmp_path):
    """An observed quickstart run writes a run bundle whose ``chrome``
    view is a loadable Chrome trace with at least one complete
    (ph="X") pipeline span."""
    import json

    run_path = tmp_path / "RUN.json"
    for argv in (
        [str(EXAMPLES_DIR / "quickstart.py"), "--run-out", str(run_path)],
        ["-m", "repro.telemetry.report", "chrome", str(run_path)],
    ):
        result = subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, (
            f"{argv} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
        )
    document = json.loads(result.stdout)
    completes = [e for e in document["traceEvents"] if e.get("ph") == "X"]
    assert completes, "trace has no complete spans"
    for event in completes:
        assert {"name", "pid", "tid", "ts", "dur"} <= set(event)
    # The dataplane pipeline itself was spanned, stage by stage.
    assert any(e["name"] == "pisa.stage" for e in completes)
