"""Every narrative script under demos/ runs to completion, with numpy's
RuntimeWarnings as errors, and prints every line of its docstring's example
output."""

import os
import subprocess
import sys

import pytest

import fidest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))
EXAMPLE_MARK = "=== EXAMPLE OUTPUT ===\n"


def example_lines(path: str) -> list[str]:
    """The docstring's example output lines, without the `...` elisions."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if EXAMPLE_MARK not in text:
        return []
    block = text.split(EXAMPLE_MARK, 1)[1].split('"""', 1)[0]
    return [line for line in block.splitlines() if line.strip() and line.strip() != "..."]


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_0(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fidest.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = os.path.join(ROOT, "demos", script)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", path], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    for line in example_lines(path):
        assert line in printed, f"example line not printed: {line!r}"


def test_demo_examples_are_read():
    """Demos 01 and 03 carry example output, so the check above reads it."""
    assert len(example_lines(os.path.join(ROOT, "demos", "01_states_and_oracle.py"))) == 6
    assert len(example_lines(os.path.join(ROOT, "demos", "03_sqrt_extraction.py"))) == 5
