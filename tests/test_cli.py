import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from qpa import exponents as expmod
from qpa.cli import build_parser, main
from qpa.cqstate import preset
from qpa.quantities import StateDecomposition, quantity_report

from conftest import run_cli

DATA = Path(__file__).parent / "data"
LOG2 = math.log(2.0)


def test_quantities_text(capsys):
    code = main(["quantities", "--preset", "product", "--s", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "H(A|E)" in out
    line = next(l for l in out.splitlines() if l.startswith("H(A|E)"))
    assert float(line.split()[-1]) == pytest.approx(LOG2, abs=1e-11)


def test_quantities_text_labels_every_order(capsys):
    # each parameterised label carries the order exactly as its report key does
    code = main(["quantities", "--preset", "tilted-qubit", "--s", "1,0.25"])
    labels = [line[:36].rstrip() for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    for s in ("0.25", "1"):
        assert f"H_(1+s)(A|E), s={s}" in labels
        assert f"Hbar*_(1+s)(A|E), s={s}" in labels
    assert "phi(t), t=0.25" in labels
    assert not any(label.endswith("s=") or "s=." in label for label in labels)


def test_quantities_accepts_hbar_star_above_log_alphabet(tmp_path, capsys):
    # |0><0| and |+><+|: each rho_a has weight outside its sandwich's support, so
    # Hbar*_{1+s} exceeds log|A| at small s, and the report must not reject it
    from qpa.cqstate import load_state_json
    from qpa.quantities import renyi_cond_bar_star_joint

    doc = {
        "probs": [0.5, 0.5],
        "eve_states": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]],
    }
    path = tmp_path / "zero_plus.json"
    path.write_text(json.dumps(doc))
    code = main(["quantities", "--state", str(path), "--s", "0.1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    value = json.loads(captured.out)["values"]["H_renyi_bar_star(0.1)"]
    assert value > LOG2
    assert value == pytest.approx(renyi_cond_bar_star_joint(load_state_json(path.read_text()), 0.1), abs=1e-12)


def test_quantities_json_matches_golden(tmp_path, capsys):
    code = main(["quantities", "--preset", "tilted-qubit", "--s", "0.25", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / "tilted_quantities_golden.json").read_text()
    doc = json.loads(out)
    assert doc["units"] == "nats"


def test_quantities_bits_presentation_only(capsys):
    main(["quantities", "--preset", "product", "--s", "0.5", "--log-base", "bits"])
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("H(A|E)"))
    assert float(line.split()[-1]) == pytest.approx(1.0, abs=1e-11)  # one bit
    # json stays in nats regardless
    main(["quantities", "--preset", "product", "--s", "0.5", "--log-base", "bits", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["H_cond"] == pytest.approx(LOG2, abs=1e-12)
    assert doc["units"] == "nats"


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    res = run_cli("quantities", "--state", str(bad))
    assert res.returncode == 2
    assert "line" in res.stderr and "column" in res.stderr


def test_invalid_state_exit_3(tmp_path):
    bad = tmp_path / "bad_state.json"
    doc = {
        "probs": [0.7, 0.4],
        "eve_states": [
            [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
            [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        ],
    }
    bad.write_text(json.dumps(doc))
    res = run_cli("quantities", "--state", str(bad))
    assert res.returncode == 3
    assert "sum" in res.stderr  # message names the failing invariant


def test_family_mismatch_exit_4(tmp_path):
    three = tmp_path / "three.json"
    eye = [[[1 / 3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2 / 3, 0.0]]]
    three.write_text(json.dumps({"probs": [0.4, 0.3, 0.3], "eve_states": [eye, eye, eye]}))
    res = run_cli("verify", "--state", str(three), "--family", "toeplitz:q=2,k=2,m=1")
    assert res.returncode == 4


def test_one_symbol_state_exit_4(tmp_path):
    # a one-symbol alphabet has no tensor power that reaches a larger domain
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"probs": [1.0], "eve_states": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}))
    res = run_cli("verify", "--state", str(one), "--family", "toeplitz:q=2,k=2,m=1")
    assert res.returncode == 4
    assert res.stderr.startswith("error: family/alphabet mismatch:") and res.stderr.count("\n") == 1


_EYE = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
# the arguments that take each state-reading command past its own checks to the state
_STATE_COMMANDS = {
    "quantities": [],
    "verify": ["--family", "toeplitz:q=2,k=1,m=1"],
    "exponents": [],
    "sweep": [],
    "rates": [],
}


@pytest.mark.parametrize("command", list(_STATE_COMMANDS))
@pytest.mark.parametrize(
    "doc, invariant",
    [
        ({"probs": [float("nan"), 0.5], "eve_states": [_EYE, _EYE]}, "finite probabilities"),
        # finite entries whose sum overflows a double
        ({"probs": [1e308, 1e308], "eve_states": [[[[1, 0]]], [[[1, 0]]]]}, "probabilities sum to 1"),
    ],
    ids=["nan", "overflowing-sum"],
)
def test_nonfinite_probability_exit_3(tmp_path, capsys, command, doc, invariant):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main([command, "--state", str(bad), *_STATE_COMMANDS[command]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid state ({invariant}):") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["exponents", "--r", "nan"],
        ["exponents", "--r", "inf"],
        ["sweep", "--r-max", "inf"],
        ["rates", "--r", "nan"],
    ],
    ids=["exponents-nan", "exponents-inf", "sweep-inf", "rates-nan"],
)
def test_nonfinite_rate_exit_2(capsys, argv):
    code = main([*argv, "--preset", "tilted-qubit"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["quantities", "--preset", "tilted-qubit", "--s", "5e-324"],
        ["quantities", "--preset", "tilted-qubit", "--s", "0.5,1e-320"],
        ["verify", "--preset", "copy", "--family", "toeplitz:q=2,k=1,m=1", "--s", "5e-324"],
    ],
    ids=["quantities", "quantities-grid", "verify"],
)
def test_subnormal_order_exit_2(capsys, argv):
    # below 2.2e-308 the Renyi evaluations lose their precision: quantities printed 0
    # and verify divided by an order that underflowed to 0
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: Renyi order parameter s=") and "is subnormal" in captured.err
    assert captured.err.count("\n") == 1


def test_smallest_normal_order_is_accepted(capsys):
    # the binding-order search starts no lower than the smallest order the grid check accepts
    argv = ["verify", "--preset", "copy", "--family", "toeplitz:q=2,k=1,m=1", "--s", str(sys.float_info.min)]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("2/2 checks passed\n")


def test_sweep_rate_grid_overflow_exit_2(capsys):
    # (r_max - r_min) * i overflowed to inf, reported as a rate the user never passed
    code = main(["sweep", "--preset", "tilted-qubit", "--steps", "3", "--r-max", "1e308"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: rate grid r_min=0.0, r_max=1e+308, steps=3 overflows a double\n"


def test_sweep_steps_cap_exit_6_before_any_rate(capsys):
    # the cap is checked before the rates and rows exist: a curve of cap + 1 rates would hold about 2 MB of them
    steps = expmod.STEPS_CAP + 1
    tracemalloc.start()
    try:
        code = main(["sweep", "--preset", "tilted-qubit", "--steps", str(steps)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert captured.err == f"error: resource cap exceeded: {steps} steps exceed the curve cap {expmod.STEPS_CAP}\n"
    assert peak < 2**20


def test_io_error_exit_5(tmp_path):
    # the message names the -o path, never the temporary file written beside it
    missing = tmp_path / "no_dir" / "x.csv"
    res = run_cli("sweep", "--preset", "product", "--steps", "3", "-o", str(missing))
    assert res.returncode == 5
    assert res.stderr == f"error: I/O failure: [Errno 2] No such file or directory: '{missing}'\n"
    directory = tmp_path / "out"
    directory.mkdir()
    res = run_cli("sweep", "--preset", "product", "--steps", "3", "-o", str(directory))
    assert res.returncode == 5
    assert res.stderr == f"error: I/O failure: [Errno 21] Is a directory: '{directory}'\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out"]  # no .qpa-*.tmp left behind


def test_verify_single_pair(capsys):
    code = main(["verify", "--preset", "product", "--family", "modified_toeplitz:q=2,k=2,m=1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 2
    assert "2/2 checks passed" in out


@pytest.mark.parametrize(
    "family, field",
    [
        ("toeplitz:q=2,k=1,m=1,zz=7", "unknown family field 'zz'"),
        ("toeplitz:q=2,k=1,m=1,m=5", "repeated family field 'm'"),
    ],
    ids=["unknown", "repeated"],
)
def test_family_descriptor_field_errors_exit_2(capsys, family, field):
    # zz=7 was ignored (2/2 checks passed, exit 0), and of m=1,m=5 the last value won
    code = main(["verify", "--preset", "tilted-qubit", "--family", family])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {field} in {family!r}\n"


def test_negative_zero_parses_as_zero(capsys):
    # a parsed -0 reached the outputs: "R": -0.0 and "equivocation": -0.0 in the rates and
    # exponents JSON, the label s=-0 and the keys H_renyi(-0) and phi(-0) in quantities
    def run(*argv):
        assert main([*argv, "--preset", "product"]) == 0
        return capsys.readouterr().out

    rates = json.loads(run("rates", "--r", "-0", "--format", "json"))["rows"][0]
    exponents = json.loads(run("exponents", "--r", "-0", "--format", "json"))["rows"][0]
    for value in (rates["R"], rates["equivocation"], exponents["R"]):
        assert math.copysign(1.0, value) == 1.0 and value == 0.0
    values = json.loads(run("quantities", "--s", "-0", "--format", "json"))["values"]
    assert "H_renyi(0)" in values and "phi(0)" in values
    assert not any("(-" in key for key in values)
    labels = [line[:36].rstrip() for line in run("quantities", "--s", "-0").splitlines()]
    assert "H_(1+s)(A|E), s=0" in labels and "phi(t), t=0" in labels
    assert not any("=-" in label for label in labels)


def test_verify_rejects_orders_that_share_a_printed_key(capsys):
    # lhs_by_s and rhs_by_s are keyed by f"{s:g}": 0.8 and 0.8000001 both print as
    # "0.8", and lhs_by_s["0.8"] held the value at 0.8000001 beside best_s 0.8
    argv = ["verify", "--preset", "tilted-qubit", "--family", "toeplitz:q=2,k=1,m=1", "--format", "json"]
    assert main([*argv, "--s", "0.8,0.8000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: orders 0.8 and 0.8000001 share the printed key '0.8'\n"
    # an exact repeat is one order, as before
    assert main([*argv, "--s", "0.8,0.8"]) == 0
    repeated = capsys.readouterr().out
    assert main([*argv, "--s", "0.8"]) == 0
    assert repeated == capsys.readouterr().out


def test_quantities_rejects_orders_that_share_a_printed_key(capsys):
    # the report is keyed by f"{s:g}": H_renyi(0.5) held the value at 0.5000001
    with pytest.raises(ValueError, match=r"orders 0\.5 and 0\.5000001 share the printed key '0\.5'"):
        quantity_report(preset("tilted-qubit"), (0.5, 0.5000001))
    assert main(["quantities", "--preset", "tilted-qubit", "--s", "0.5,0.5000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: orders 0.5 and 0.5000001 share the printed key '0.5'\n"
    assert quantity_report(preset("tilted-qubit"), (0.5, 0.5)) == quantity_report(preset("tilted-qubit"), (0.5,))


def test_verify_copy_trivial_family(capsys):
    code = main(["verify", "--preset", "copy", "--family", "toeplitz:q=2,k=1,m=1", "--s", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "slack=" in out and "PASS" in out


@pytest.mark.parametrize("grid", ["", ","], ids=["empty", "comma"])
def test_verify_rejects_an_empty_order_grid(capsys, grid):
    # an empty --s is an empty grid, not a request for the default one
    code = main(["verify", "--preset", "copy", "--family", "toeplitz:q=2,k=1,m=1", "--s", grid])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: the hashing bounds hold for s in (0, 1]; got grid ()\n"


@pytest.mark.parametrize("command", ["exponents", "rates"])
@pytest.mark.parametrize("rates", ["", ","], ids=["empty", "comma"])
def test_empty_rate_list_exit_2(capsys, command, rates):
    # an empty --r would print a bare table header and exit 0
    code = main([command, "--preset", "tilted-qubit", "--r", rates])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --r needs at least one key rate, got {rates!r}\n"


@pytest.mark.parametrize("command", ["quantities", "exponents", "rates"])
def test_log_base_rescales_the_text_display(capsys, command):
    assert main([command, "--preset", "product", "--log-base", "bits"]) == 0
    bits = capsys.readouterr().out
    assert main([command, "--preset", "product"]) == 0
    assert bits != capsys.readouterr().out


def test_verify_has_no_log_base(capsys):
    # its slacks are in nats or, for the exp bound, a dimensionless ratio
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--preset", "product", "--family", "toeplitz:q=2,k=1,m=1", "--log-base", "bits"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --log-base bits" in capsys.readouterr().err


def test_verify_json_report(capsys):
    code = main(
        ["verify", "--preset", "copy", "--family", "toeplitz:q=2,k=1,m=1", "--format", "json"]
    )
    docs = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {d["check"] for d in docs} == {"hashing-bound-I-prime", "hashing-bound-exp-Ibar-prime"}
    assert all(d["passed"] for d in docs)


def test_exponents_command(capsys):
    code = main(["exponents", "--preset", "product", "--r", "0.3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    row = doc["rows"][0]
    assert row["e_H"] == pytest.approx(LOG2 - 0.3, abs=1e-9)
    assert row["e_d_lower"] == pytest.approx((LOG2 - 0.3) / 2, abs=1e-9)


def test_rates_command(capsys):
    code = main(["rates", "--preset", "product", "--r", "1.0", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    row = doc["rows"][0]
    assert row["equivocation"] == pytest.approx(LOG2, abs=1e-10)
    assert row["min_leak_rate"] == pytest.approx(1 - LOG2, abs=1e-10)


def test_sweep_matches_golden_and_is_deterministic(tmp_path):
    golden = (DATA / "tilted_sweep_golden.csv").read_bytes()
    outs = []
    for threads, name in (("1", "a.csv"), ("4", "b.csv"), ("1", "c.csv")):
        path = tmp_path / name
        res = run_cli(
            "sweep", "--preset", "tilted-qubit", "--steps", "21", "-o", str(path),
            env_extra={"QPA_THREADS": threads},
        )
        assert res.returncode == 0, res.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2] == golden


def test_sweep_product_closed_form(tmp_path):
    path = tmp_path / "product.csv"
    code = main(
        ["sweep", "--preset", "product", "--r-min", "0", "--r-max", "0.6931", "--steps", "5", "-o", str(path)]
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("R,e_H,")
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        assert cells[1] == pytest.approx(max(LOG2 - cells[0], 0.0), abs=1e-9)


def test_selftest_passes():
    res = run_cli("selftest")
    assert res.returncode == 0
    assert "0 failure(s)" in res.stdout


def test_missing_state_source_is_parse_error():
    assert main(["quantities"]) == 2
    assert main(["quantities", "--preset", "not-a-preset"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["quantities"], "one of --preset or --state is required"),
        (["verify", "--preset", "tilted-qubit"], "verify needs --family unless --suite full is given"),
    ],
    ids=["quantities-without-state", "verify-without-family"],
)
def test_usage_errors_are_not_reported_as_bad_documents(capsys, argv, message):
    # no state document is involved, so the message carries no "bad state document" label
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_suite_full_matches_golden(capsys):
    code = main(["verify", "--suite", "full"])
    assert code == 0
    assert capsys.readouterr().out.encode() == (DATA / "suite_full_golden.txt").read_bytes()


def test_suite_full_json_matches_golden_digest(capsys):
    # SHA-256 of the 222 KB output; suite_full_golden.txt gives the readable diff
    code = main(["verify", "--suite", "full", "--format", "json"])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "feda9db52313abe9c3dce3ff439e0c0cf7c422b7cad45ffc772af81c9fdc9792"


@pytest.mark.parametrize(
    "flag, value",
    [("--s", "0"), ("--family", "toeplitz:q=2,k=2,m=1"), ("--preset", "copy"), ("--state", "state.json")],
    ids=["s", "family", "preset", "state"],
)
def test_suite_full_rejects_ignored_flags(capsys, flag, value):
    # the suite runs its own corpus, families and order grid
    code = main(["verify", "--suite", "full", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} cannot be combined with --suite full, which ignores it\n"


def test_complex_lifted_verify_matches_golden(monkeypatch, capsys):
    # a complex qubit state lifted to its 5th power (d_E = 32); run from tests/data so the
    # report's "state" field holds the relative path the golden was made with
    monkeypatch.chdir(DATA)
    argv = ["verify", "--state", "complex_qubit_state.json", "--family", "modified_toeplitz:q=2,k=5,m=3"]
    code = main([*argv, "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out.encode() == (DATA / "complex_lifted_verify_golden.json").read_bytes()


def test_commands_take_one_spectral_path(monkeypatch, capsys):
    # every command, selftest included, reads the arrays of StateDecomposition: the reference
    # helpers serve only the joint oracles and the tests, and HermitianMatrix only
    # CQState.eve_states. Each helper is rebound in every qpa module that binds it, so a call
    # through another module's binding is counted too
    from qpa import cqstate, hermitian

    helpers = ("eig_hermitian", "matrix_power", "matrix_log", "tensor", "pinch", "joint_density", "eve_marginal")
    originals = {getattr(hermitian, name, None) or getattr(cqstate, name): name for name in helpers}
    counts = dict.fromkeys(("HermitianMatrix", *helpers), 0)
    init = hermitian.HermitianMatrix.__init__

    def counted_init(self, *args, **kwargs):
        counts["HermitianMatrix"] += 1
        init(self, *args, **kwargs)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(hermitian.HermitianMatrix, "__init__", counted_init)
    wrappers = {id(fn): counted(name, fn) for fn, name in originals.items()}
    for module in [m for n, m in sorted(sys.modules.items()) if n == "qpa" or n.startswith("qpa.")]:
        for key, value in list(vars(module).items()):
            if id(value) in wrappers:
                monkeypatch.setattr(module, key, wrappers[id(value)])
    state = ["--state", str(DATA / "complex_qubit_state.json")]
    for argv in (
        ["quantities", "--preset", "tilted-qubit", "--s", "0,0.5,2"],
        ["verify", "--suite", "full"],
        ["verify", *state, "--family", "modified_toeplitz:q=2,k=5,m=3"],
        ["exponents", *state, "--r", "0.1,0.4"],
        ["sweep", *state, "--steps", "5"],
        ["rates", *state, "--r", "0.1,0.4"],
        ["selftest"],
    ):
        assert main(argv) == 0, argv
        assert counts == dict.fromkeys(counts, 0), argv
    capsys.readouterr()


def test_selftest_and_joint_oracles_build_no_hermitian_matrix(monkeypatch, capsys, corpus_states):
    # selftest, the joint oracles and relative_entropies compute on plain arrays;
    # HermitianMatrix is left to CQState.eve_states
    from qpa import hermitian
    from qpa import quantities as qmod
    from qpa.cqstate import CQState, eve_marginal, joint_density

    built = []
    init = hermitian.HermitianMatrix.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(hermitian.HermitianMatrix, "__init__", counted_init)
    assert main(["selftest"]) == 0
    capsys.readouterr()
    assert built == [], "selftest"
    for name, st in corpus_states.items():
        st = CQState(st.probs, st.rhos)  # a fresh state, whose eve_states nothing has built
        for s in (0.0, 0.5):
            qmod.renyi_cond_joint(st, s)
        qmod.renyi_cond_bar_star_joint(st, 0.5)
        qmod.cond_entropy_bar_joint(st)
        qmod.min_entropy_joint(st)
        qmod.mutual_info_variants_joint(st)
        qmod.trace_distances_joint(st)
        qmod.phi_quantity_joint(st, 0.25)
        qmod.relative_entropies(joint_density(st), hermitian.tensor(np.diag(st.probs), eve_marginal(st)))
        assert built == [], name


def test_size_cap_exit_6(capsys):
    code = main(["verify", "--preset", "tilted-qubit", "--family", "toeplitz:q=2,k=12,m=2"])
    err = capsys.readouterr().err
    assert code == 6
    assert err.startswith("error: resource cap exceeded:") and err.count("\n") == 1


@pytest.mark.parametrize("k", [5000, 1_000_000])
def test_over_cap_family_width_exit_6_at_once(capsys, k):
    # q**k is never formed for an over-cap k: printing 3**1000000 overran int-to-str's
    # digit limit (exit 2), and 3**5000 printed 2,386 digits
    start = time.perf_counter()
    code = main(["verify", "--preset", "copy", "--family", f"toeplitz:q=3,k={k},m=1"])
    elapsed = time.perf_counter() - start
    assert code == 6 and elapsed < 1.0
    assert capsys.readouterr().err == f"error: resource cap exceeded: domain size q^k = 3^{k} exceeds cap 65536\n"


def _wide_state(tmp_path):
    """A state on |A| = 2**14, over the difference-scan cap; enumerating its 8192 members first took minutes."""
    size = 2**14
    state = tmp_path / "wide.json"
    state.write_text(json.dumps({"probs": [1 / size] * size, "eve_states": [[[[1.0, 0.0]]]] * size}))
    return str(state)


def test_certification_cap_fails_before_the_enumeration(tmp_path):
    res = run_cli("verify", "--state", _wide_state(tmp_path), "--family", "modified_toeplitz:q=2,k=14,m=1", timeout=30)
    assert res.returncode == 6
    assert res.stderr == "error: resource cap exceeded: domain size 16384 exceeds difference-scan cap 8192\n"
    assert res.stdout == ""


def test_bad_grid_fails_before_the_certification_cap(tmp_path):
    argv = ("verify", "--state", _wide_state(tmp_path), "--family", "modified_toeplitz:q=2,k=14,m=1", "--s", "2")
    res = run_cli(*argv, timeout=30)
    assert res.returncode == 2
    assert res.stderr == "error: the hashing bounds hold for s in (0, 1]; got grid (2.0,)\n"
    assert res.stdout == ""


def test_bad_grid_fails_before_the_lift(capsys):
    # the 2^12-symbol tensor power of the qubit state would exceed the joint-dimension cap
    code = main(["verify", "--preset", "tilted-qubit", "--family", "toeplitz:q=2,k=12,m=1", "--s", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: the hashing bounds hold for s in (0, 1]; got grid (2.0,)\n"
    assert captured.out == ""


def _eigh_fails(m):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _svd_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def _exponents_disagree(*args, **kwargs):
    return 10.0, 0.25


@pytest.mark.parametrize(
    "target, replacement, argv",
    [
        (np.linalg, ("eigh", _eigh_fails), ["quantities", "--preset", "tilted-qubit"]),
        (expmod, ("_e_phi_q", _exponents_disagree), ["exponents", "--preset", "tilted-qubit"]),
        # numpy's LinAlgError is a ValueError, which is not to be reported as a parse error
        (np.linalg, ("svd", _svd_fails), ["exponents", "--preset", "tilted-qubit"]),
        (np.linalg, ("eigvalsh", _eigh_fails), ["quantities", "--preset", "tilted-qubit"]),
    ],
    ids=["eigen-convergence", "exponent-comparison", "svd-convergence", "eigvalsh-convergence"],
)
def test_numeric_failure_exit_7(monkeypatch, capsys, target, replacement, argv):
    monkeypatch.setattr(target, *replacement)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 7
    assert err.startswith("error: internal numeric failure:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "probs,got",
    [
        ([[0.5], [0.5]], "an array"),
        ([True, False], "true/false"),
        (["a", 0.5], "a string"),
        ([None, 0.5], "null"),
        ([10**400, 0.5], "an integer beyond double range"),
        ([[0.5] * 200_000, 0.5], "an array"),
        ([json.loads("[" * 500 + "]" * 500), 0.5], "an array"),
        ([{"p": "x" * 100_000}, 0.5], "an object"),
    ],
    ids=["nested-list", "bool", "string", "null", "huge-int", "200000-array", "500-deep", "long-object"],
)
def test_non_number_probs_exit_2(tmp_path, capsys, probs, got):
    # the message names the entry's JSON type, never its value, which may be arbitrarily large
    eye = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    bad = tmp_path / "probs.json"
    bad.write_text(json.dumps({"probs": probs, "eve_states": [eye, eye]}))
    code = main(["quantities", "--state", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f'error: bad state document: "probs" entry 0 must be a number, got {got}\n'
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize(
    "text", ['{"preset": ' + "[" * 3000 + "]" * 3000 + "}", "[" * 100_000], ids=["preset-3000-deep", "100000-open"]
)
def test_deeply_nested_document_exit_2(tmp_path, capsys, text):
    # json.loads raises RecursionError past its nesting limit, which must not escape main as a crash
    bad = tmp_path / "deep.json"
    bad.write_text(text)
    code = main(["quantities", "--state", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: bad state document: document nested too deeply to parse\n"


@pytest.mark.parametrize(
    "cell",
    [[True, False], [0.5, 0.0, 0.0], [10**400, 0.0], [0.5, "0"], [0.5], 0.5],
    ids=["bool", "three-entries", "huge-int", "string", "one-entry", "bare-number"],
)
def test_bad_matrix_cell_exit_2(tmp_path, capsys, cell):
    eye = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    bad = tmp_path / "cells.json"
    bad.write_text(json.dumps({"probs": [0.5, 0.5], "eve_states": [eye, [[cell, [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]}))
    code = main(["quantities", "--state", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad state document: eve state 1") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "name, allowed",
    [
        ("depolarized(2)", "a finite p in [0, 4/3]"),
        ("depolarized(-1)", "a finite p in [0, 4/3]"),
        ("depolarized(1e400)", "a finite p in [0, 4/3]"),
        ("depolarized(nan)", "a finite p in [0, 4/3]"),
        ("bb84(inf)", "a finite angle theta"),
        ("bb84(nan)", "a finite angle theta"),
    ],
)
def test_preset_parameter_out_of_range_exit_2(capsys, name, allowed):
    code = main(["quantities", "--preset", name])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    base = name.partition("(")[0]
    assert captured.err.startswith(f"error: preset '{base}' needs {allowed}, got ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["exponents", "--r", "0.1,0.2,0.3"], "tilted_exponents_golden.json"),
        (["verify", "--family", "toeplitz:q=2,k=2,m=1"], "tilted_lifted_verify_golden.json"),
        (["rates", "--r", "0.1,0.5"], "tilted_rates_golden.json"),
    ],
    ids=["exponents", "lifted-verify", "rates"],
)
def test_tilted_json_matches_golden(capsys, argv, golden):
    code = main([*argv, "--preset", "tilted-qubit", "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["quantities", "--s", "0,0.25,0.5,1"], "tilted_quantities_golden.txt"),
        (["quantities", "--s", "0,0.25,0.5,1", "--log-base", "bits"], "tilted_quantities_bits_golden.txt"),
        (["exponents", "--r", "0.1,0.2,0.3"], "tilted_exponents_golden.txt"),
        (["exponents", "--r", "0.1,0.2,0.3", "--log-base", "bits"], "tilted_exponents_bits_golden.txt"),
        (["rates", "--r", "0.1,0.5"], "tilted_rates_golden.txt"),
        (["verify", "--family", "toeplitz:q=2,k=2,m=1"], "tilted_lifted_verify_golden.txt"),
    ],
    ids=["quantities", "quantities-bits", "exponents", "exponents-bits", "rates", "lifted-verify"],
)
def test_tilted_text_matches_golden(capsys, argv, golden):
    code = main([*argv, "--preset", "tilted-qubit"])
    assert code == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


def test_exponents_evaluate_each_search_grid_once(monkeypatch, capsys):
    calls = []
    for attr in ("renyi_cond_grid", "phi_grid"):
        original = getattr(StateDecomposition, attr)

        def counted(self, values, _original=original, _attr=attr):
            if np.size(values) > 1:  # scalar renyi_cond(s) and phi(t) go through the grids too
                calls.append(_attr)
            return _original(self, values)

        monkeypatch.setattr(StateDecomposition, attr, counted)
    assert main(["exponents", "--preset", "tilted-qubit", "--r", "0.1,0.2,0.3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert calls == []  # renyi_cond_grid and phi_grid see one point at a time: no exponent searches a grid


@pytest.mark.parametrize(
    "argv", [["verify", "--suite", "full"], ["sweep", "--preset", "tilted-qubit", "--steps", "201"]]
)
def test_command_reruns_in_one_process_print_the_same_bytes(argv):
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1] and outputs[0]


# -- every invocation ends in a documented exit code ---------------------------------

_EDGE_FLOATS = ["nan", "inf", "-inf", "1e400", "-1e400", "5e-324", "1e-320", "2.2250738585072014e-308", "0", "-0"]
_EDGE_FLOATS += ["0.5", "1", "2", "4", "4.5", "-0.1", "1e-9"]
_EDGE_NUMBERS = [0.0, -0.0, 0.5, 1.0, -1.0, 2, 1e308, -1e308, 5e-324, 1e-320, math.nan, math.inf, -math.inf, 10**400]
_EDGE_NUMBERS += [True, None, "0.5", [], {}]
_FAMILIES = [
    "toeplitz:q=2,k=1,m=1",
    "modified_toeplitz:q=2,k=2,m=1",
    "toeplitz:q=2,k=2,m=2",
    "toeplitz:q=2,k=3,m=1",
    "toeplitz:q=3,k=1,m=1",
    "toeplitz:q=2,k=40,m=1",
    "toeplitz:q=1,k=1,m=1",
    "toeplitz:q=2,k=0,m=1",
    "toeplitz:q=2,k=1,m=0",
    "toeplitz:q=2,k=1",
    "toeplitz:q=2,k=1,m=1,m=1",
    "toeplitz:q=nan,k=1,m=1",
    "bogus:q=2,k=1,m=1",
    "",
]
_GOOD_PRESETS = ["copy", "product", "tilted-qubit", "bb84(0.3)", "depolarized(0.3)", "depolarized(1.3333333333333333)"]
_BAD_PRESETS = ["bb84(nan)", "bb84(inf)", "depolarized(1e400)", "depolarized(-1)", "bb84(5e-324)", "bb84()"]
_BAD_PRESETS += ["product(1)", "nope", ""]
# tokens of 200 to 300 characters, or of 60 to 120 that print longer: control characters print as
# escapes under !r and the others as several UTF-8 bytes; an echo that is not cut overruns the 200-byte line
_long_tokens = hst.one_of(
    hst.text(alphabet="abcxyz0123456789.+-e(),", min_size=200, max_size=300),
    hst.text(alphabet="ax.\x01\x1b\x7f\\'\"\u00e9\u200b\U0001f600", min_size=60, max_size=120),
)
_long_presets = hst.one_of(_long_tokens, hst.builds("{}({})".format, hst.sampled_from(["bb84", "copy"]), _long_tokens))
_presets = hst.one_of(hst.sampled_from(_GOOD_PRESETS), hst.sampled_from(_BAD_PRESETS), _long_presets)
_STEPS = ["-1", "0", "1", "2", "3", "65537", "1000000000"]  # a valid count stays small: each row costs time

_floats = hst.one_of(hst.sampled_from(["0.1", "0.5", "1"]), hst.sampled_from(_EDGE_FLOATS))  # half of them valid
_float_lists = hst.one_of(hst.lists(_floats, max_size=3).map(",".join), _long_tokens)
_cells = hst.one_of(hst.lists(hst.sampled_from(_EDGE_NUMBERS), max_size=3), hst.sampled_from(_EDGE_NUMBERS))
_matrices = hst.lists(hst.lists(_cells, max_size=2), max_size=2)


@hst.composite
def _square_states(draw):
    """``{"probs", "eve_states"}`` of matching sizes, with edge numbers in some entries."""
    n, d = draw(hst.integers(1, 3)), draw(hst.integers(1, 3))
    number = hst.one_of(hst.floats(0.0, 1.0), hst.sampled_from(_EDGE_NUMBERS))
    cell = hst.one_of(hst.tuples(number, number).map(list), _cells)
    matrix = hst.lists(hst.lists(cell, min_size=d, max_size=d), min_size=d, max_size=d)
    probs = draw(hst.lists(number, min_size=n, max_size=n))
    return {"probs": probs, "eve_states": draw(hst.lists(matrix, min_size=n, max_size=n))}


_documents = hst.one_of(
    _square_states(),
    hst.fixed_dictionaries(
        {"probs": hst.lists(hst.sampled_from(_EDGE_NUMBERS), max_size=3), "eve_states": hst.lists(_matrices, max_size=3)}
    ),
    hst.fixed_dictionaries({"preset": hst.one_of(_presets, hst.sampled_from(_EDGE_NUMBERS))}),
    hst.sampled_from(_EDGE_NUMBERS),
).map(json.dumps)
_texts = hst.one_of(_documents, hst.sampled_from(["", "{", "[" * 5000, '{"probs": [0.5, 0.5]}', "\x00"]))

# values of every option of build_parser(); "{dir}" stands for the test's directory
_OPTION_VALUES = {
    "--preset": _presets,
    "--state": hst.sampled_from(["{dir}/state.json", "{dir}/state.json", "{dir}/missing.json", "{dir}"]),
    "--s": _float_lists,
    "--r": _float_lists,
    "--family": hst.sampled_from(_FAMILIES),
    "--suite": hst.just("full"),
    "--r-min": _floats,
    "--r-max": _floats,
    "--steps": hst.sampled_from(_STEPS),
    "--output": hst.sampled_from(["{dir}/out.txt", "{dir}/missing/out.txt", "{dir}"]),
    "--format": hst.sampled_from(["text", "json"]),
    "--log-base": hst.sampled_from(["nats", "bits"]),
}


def _parser_options() -> dict[str, list[str]]:
    """Each subcommand of ``build_parser()`` with the long form of every option it takes but ``--help``."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [max(a.option_strings, key=len) for a in parser._actions if a.option_strings and a.dest != "help"]
        for name, parser in sub.choices.items()
    }


@hst.composite
def _invocations(draw):
    """``(argv, state document)``: a subcommand of ``build_parser()`` and some of its options, as ``--option=value``."""
    command, options = draw(hst.sampled_from(sorted(_parser_options().items())))
    argv = [command] + [f"{option}={draw(_OPTION_VALUES[option])}" for option in options if draw(hst.booleans())]
    return argv, draw(_texts)


_OVERFLOWING_SUM = json.dumps({"probs": [1e308, 1e308], "eve_states": [[[[1, 0]]], [[[1, 0]]]]})
_TWO_DIMENSIONS = json.dumps({"probs": [0.5, 0.5], "eve_states": [[[[1, 0]]], _EYE]})  # eve states of two sizes


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@given(invocation=_invocations())
@example(invocation=(["rates", "--state={dir}/state.json"], _OVERFLOWING_SUM))
@example(invocation=(["quantities", "--state={dir}/state.json"], _TWO_DIMENSIONS))
# echoed inputs are cut: a 40-order grid, and a 300-digit m
@example(invocation=(["verify", "--preset=copy", "--family=toeplitz:q=2,k=1,m=1", "--s=" + ",".join(["2"] * 40)], ""))
@example(invocation=(["verify", "--preset=copy", "--family=toeplitz:q=2,k=1,m=" + "9" * 300], ""))
# ... and 300-character orders, rates, presets and preset parameters
@example(invocation=(["quantities", "--preset=copy", "--s=" + "x" * 300], ""))
@example(invocation=(["rates", "--preset=copy", "--r=" + "x" * 300], ""))
@example(invocation=(["rates", "--preset=copy", "--r=" + "," * 300], ""))
@example(invocation=(["verify", "--preset=" + "x" * 300, "--family=toeplitz:q=2,k=1,m=1"], ""))
@example(invocation=(["quantities", "--preset=bb84(" + "x" * 300 + ")"], ""))
# ... and 100 control characters or emoji, cut by the bytes they print
@example(invocation=(["quantities", "--preset=copy", "--s=" + "\x01" * 100], ""))
@example(invocation=(["quantities", "--preset=copy", "--s=" + "\U0001f600" * 100], ""))
def test_every_invocation_exits_with_a_documented_code(cli_dir, invocation):
    argv, text = invocation
    (cli_dir / "state.json").write_text(text, encoding="utf-8")
    argv = [arg.replace("{dir}", str(cli_dir)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(8), argv
    assert "Traceback" not in err.getvalue(), argv
    if code >= 2:  # an error; exit 1 is a verification that ran and failed, with its report
        assert out.getvalue() == "", argv
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())
        assert len(err.getvalue().encode()) < 200, (argv, err.getvalue())
