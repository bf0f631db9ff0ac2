"""Smoke tests: every shipped example runs end to end and prints output.

The examples are part of the public deliverable; these tests execute each
one in-process (fast paths only — the examples are already sized for
interactive runs) and assert on the key facts their narratives rely on.
"""

import io
import re
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro import ShardedEngine

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
README = Path(__file__).parent.parent / "README.md"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return buffer.getvalue()


def test_examples_present():
    # The deliverable requires a quickstart plus domain scenarios.
    assert "quickstart.py" in ALL_EXAMPLES
    assert len(ALL_EXAMPLES) >= 3


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_runs(name):
    output = run_example(name)
    assert output.strip(), f"{name} produced no output"


def test_quickstart_facts():
    output = run_example("quickstart.py")
    assert "is_exact=True" in output
    assert "bits/key" in output


def test_lsm_store_grafite_saves_io():
    output = run_example("lsm_store.py")
    grafite_line = next(l for l in output.splitlines() if l.strip().startswith("Grafite"))
    no_filter_line = next(
        l for l in output.splitlines() if l.strip().startswith("no filter")
    )

    def reads(line):
        return int(line.split("disk reads=")[1].split()[0].replace(",", ""))

    assert reads(grafite_line) < reads(no_filter_line) / 10


def test_adversarial_attack_contrast():
    output = run_example("adversarial_attack.py")
    grafite_line = next(
        l for l in output.splitlines() if l.strip().startswith("Grafite |")
    )
    rates = [float(x) for x in grafite_line.split("|")[1].split()]
    assert max(rates) < 0.05, "Grafite must resist the adaptive adversary"


def test_string_keys_negative_case():
    output = run_example("string_keys.py")
    assert "= False" in output, "the absent-key demo should answer False"


def readme_python_blocks():
    """The README quickstart's ``python - <<'PY'`` heredoc bodies."""
    return re.findall(r"^python - <<'PY'\n(.*?)^PY$", README.read_text(), re.M | re.S)


def test_readme_quickstart_blocks_run(tmp_path):
    blocks = readme_python_blocks()
    assert len(blocks) == 2
    outputs = []
    for block in blocks:
        source = block.replace("/tmp/grafite-db", str(tmp_path / "grafite-db"))
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            exec(compile(source, str(README), "exec"), {"__name__": "__main__"})
        outputs.append(buffer.getvalue().splitlines())
    assert outputs[0][0] == "True"  # the range holding key 7312
    assert (tmp_path / "grafite-db" / "MANIFEST.json").exists()
    reopened = ShardedEngine.open(tmp_path / "grafite-db")
    assert reopened.filter_spec.backend == "grafite"
    assert reopened.get(7) == "v7"
