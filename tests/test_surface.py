"""What other code relies on in qpa: the benchmark tracer and correctness gate, and the README."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from qpa import cqstate

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


def test_traced_state_key_reads_the_eve_states(monkeypatch):
    # --trace 1 keys every decomposed state by its probabilities and eve_states[a].mat bytes
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    state_key = importlib.import_module("tracing")._state_key
    tilted = cqstate.preset("tilted-qubit")
    hashed = cqstate.apply_function(tilted, cqstate.ClassicalFunction.constant(2))
    for state in (tilted, hashed):
        key = state_key(state)
        assert len(key) == 16 and key == state_key(cqstate.make_cq_state(state.probs, state.rhos))
        for a, rho in enumerate(state.eve_states):
            assert np.array_equal(rho.mat, state.rhos[a])
    assert state_key(tilted) != state_key(hashed)


@pytest.mark.parametrize("seed", [0, 1])  # 1 is perfbench/run.py's default seed
def test_benchmark_sweep_passes_its_correctness_gate(monkeypatch, tmp_path, seed):
    # the sweep workload's own check, with the stored reference rows of the seed,
    # so a drifted argument or value fails here before the benchmark runs
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    sweep = importlib.import_module("workloads").Sweep(seed, tmp_path)
    assert sweep._check_one(sweep.op()) is None


def test_benchmark_suite_passes_its_correctness_gate(monkeypatch, tmp_path):
    # the suite workload's own check against its stored slacks; its inputs do not depend on the seed
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    suite = importlib.import_module("workloads").Suite(1, tmp_path)
    assert suite._check_one(suite.op()) is None


@pytest.mark.parametrize("seed", [0, 1])  # 1 is perfbench/run.py's default seed
def test_benchmark_lifted_passes_its_correctness_gate(monkeypatch, tmp_path, seed):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    lifted = importlib.import_module("workloads").Lifted(seed, tmp_path)
    assert lifted._check_one(lifted.op()) is None
