"""The README's quick start runs as written and prints what it promises."""

import contextlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _first_python_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"```python\n(.*?)```", text, re.DOTALL)
    assert match, "README.md has no python block"
    return match.group(1)


def test_quick_start_runs(monkeypatch):
    # The block loads the plant by a path relative to the repository root.
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(_first_python_block(), "README.md", "exec"), namespace)
    trace = namespace["trace"]
    assert trace.status == "converged"
    assert trace.alpha_cor3 == pytest.approx(0.677, abs=5e-4)
    assert trace.config.variant == "alg3"
