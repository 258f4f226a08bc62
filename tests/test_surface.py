"""What other code relies on in qpa: the benchmark tracer and correctness gate, and the README."""

import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from qpa import cqstate
from qpa.cli import main

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


def test_readme_command_line_block_runs(monkeypatch, tmp_path, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", commands, re.S).group(1)
    monkeypatch.chdir(tmp_path)  # sweep -o writes its CSV here
    lines = [re.sub(r"\[.*?\]", "", line.split("#", 1)[0]).split() for line in block.splitlines()]
    assert len(lines) == 7
    for argv in lines:
        assert argv[0] == "qpa"
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "curve.csv").exists()


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


def _bindings(tracing) -> dict:
    """Every name bound in a qpa module, a traced class and numpy.linalg, by (owner, name)."""
    for modname in {entry[0] for entry in tracing.FUNCTIONS + tracing.METHODS}:
        importlib.import_module(modname)
    owners = [m for n, m in sorted(sys.modules.items()) if n == "qpa" or n.startswith("qpa.")]
    owners += [getattr(sys.modules[mod], cls) for mod, cls, _, _ in tracing.METHODS]
    owners.append(np.linalg)
    return {(repr(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_benchmark_tracer_changes_no_output_and_restores_every_binding(monkeypatch, tmp_path):
    # perfbench/run.py --trace 1 rebinds every traced name, and its hooks read arguments
    # by position (StateDecomposition.__init__'s state, golden_max's objective), so a
    # signature change breaks a traced run unseen unless one operation runs under it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    ops = {name: cls(1, tmp_path).op for name, cls in workloads.WORKLOADS.items()}
    ops["selftest"] = lambda: workloads.run_cli(["selftest"])
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = {name: op() for name, op in ops.items()}
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert tracer.calls["cli.main"] == 4 and tracer.calls["hashing.collision"] > 0
    for name, op in ops.items():
        assert op() == traced[name], name
