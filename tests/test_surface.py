"""The names other code reaches into qpa for: the benchmark tracer and the README."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_names_resolve(monkeypatch):
    # perfbench/run.py --trace 1 wraps these names and fails on a missing one
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    for modname, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    for modname, clsname, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert callable(cls.__dict__[attr]), (modname, clsname, attr)


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert "import qpa" in block
    exec(compile(block, "README.md", "exec"), {})
