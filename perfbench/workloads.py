"""The benchmark's four workloads: inputs from a seed, one operation, a correctness gate.

Each workload is built by ``WORKLOADS[name](seed, workdir)``; building it is
the set-up the benchmark times. ``op()`` is one closed-loop operation and
returns its output; ``check(outputs)`` runs after the timed loop and gives,
for every output, ``None`` when it is correct or a one-line reason when not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

import qpa
from qpa import cli, quantities

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SWEEP_STEPS = 201
SWEEP_HEADER = "R,e_H,s_star_H,e_H_q,s_star_Hq,e_phi_q,t_star,e_d_lower"
LIFTED_FAMILY = "modified_toeplitz:q=2,k=5,m=3"
CERTIFY_FAMILIES = [
    ("toeplitz", 2, 13, 4),
    ("modified_toeplitz", 2, 13, 4),
    ("toeplitz", 3, 8, 3),
    ("modified_toeplitz", 5, 5, 2),
]
TOL = 1e-9


def random_state_doc(seed: int, alphabet_size: int, eve_dim: int) -> dict:
    """Seeded state in the documented ``--state`` JSON schema.

    Dirichlet(1) probabilities and trace-normalised Wishart densities, the
    same construction as ``qpa.random_cq``, generated here so the inputs do
    not depend on the program under test.
    """
    rng = np.random.default_rng(seed % 2**63)
    raw = rng.gamma(1.0, size=alphabet_size)
    probs = raw / raw.sum()
    mats = []
    for _ in range(alphabet_size):
        g = rng.normal(size=(eve_dim, eve_dim)) + 1j * rng.normal(size=(eve_dim, eve_dim))
        w = g @ g.conj().T
        w = (w + w.conj().T) / 2
        mats.append(w / np.trace(w).real)
    return {
        "probs": [float(p) for p in probs],
        "eve_states": [[[[float(z.real), float(z.imag)] for z in row] for row in m] for m in mats],
    }


def write_state(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _check_each(outputs, check_one):
    """Apply ``check_one`` once per distinct output; an exception is a failure."""
    verdicts = {}
    result = []
    for out in outputs:
        if out not in verdicts:
            try:
                verdicts[out] = check_one(out)
            except Exception as exc:  # a malformed output is a wrong answer, not a crash
                verdicts[out] = f"check raised {type(exc).__name__}: {exc}"
        result.append(verdicts[out])
    return result


def _close(x: float, ref: float, abs_tol: float, rel_tol: float) -> bool:
    return abs(x - ref) <= abs_tol + rel_tol * abs(ref)


SUITE_LINE = re.compile(r"^(PASS|FAIL)  (\S+)\s+slack=\s*(\S+)  state=(.*) family=(.*)$")


def parse_suite(stdout: str) -> list[list]:
    """``[status, check, slack, state, family]`` for every report line of ``verify --suite``."""
    rows = []
    for line in stdout.splitlines()[:-1]:
        m = SUITE_LINE.match(line)
        if m is None:
            raise ValueError(f"unparsed line {line!r}")
        rows.append([m[1], m[2], float(m[3]), m[4], m[5]])
    return rows


class Suite:
    """``qpa verify --suite full``: the whole corpus, about 16k tiny eigenproblems.

    The suite's inputs are fixed; the seed does not change them.
    """

    SLACK_ABS, SLACK_REL = 1e-8, 1e-6

    def __init__(self, seed: int, workdir: Path):
        self.argv = ["verify", "--suite", "full"]
        self.reference = json.loads((REFERENCE_DIR / "suite.json").read_text(encoding="utf-8"))["lines"]

    def op(self):
        return run_cli(self.argv)

    def _check_one(self, out) -> str | None:
        code, stdout, stderr = out
        if code != 0 or stderr:
            return f"exit {code}, stderr {stderr[:200]!r}"
        rows = parse_suite(stdout)
        n = len(self.reference)
        if stdout.splitlines()[-1] != f"{n}/{n} checks passed" or len(rows) != n:
            return f"summary {stdout.splitlines()[-1]!r}, expected {n}/{n}"
        for (status, check, slack, state, family), (rcheck, rslack, rstate, rfamily) in zip(rows, self.reference):
            if status != "PASS" or (check, state, family) != (rcheck, rstate, rfamily):
                return f"line {check} {state} {family}: {status}, expected PASS {rcheck} {rstate} {rfamily}"
            if not _close(slack, rslack, self.SLACK_ABS, self.SLACK_REL):
                return f"{check} {state} {family}: slack {slack!r} vs reference {rslack!r}"
        return None

    def check(self, outputs):
        return _check_each(outputs, self._check_one)


class Lifted:
    """``qpa verify`` of a random 2-symbol qubit state against a k=5 family.

    The CLI lifts the state to its 5th tensor power: |A| = 32 and d_E = 32,
    so the time goes into LAPACK on 32-dim matrices, under the default pool.
    """

    def __init__(self, seed: int, workdir: Path):
        path = write_state(workdir / "lifted_state.json", random_state_doc(seed, 2, 2))
        self.argv = ["verify", "--state", path, "--family", LIFTED_FAMILY, "--format", "json"]

    def op(self):
        return run_cli(self.argv)

    def _check_one(self, out) -> str | None:
        code, stdout, stderr = out
        if code != 0 or stderr:
            return f"exit {code}, stderr {stderr[:200]!r}"
        reports = {rep["check"]: rep for rep in json.loads(stdout)}
        if sorted(reports) != ["hashing-bound-I-prime", "hashing-bound-exp-Ibar-prime"]:
            return f"unexpected checks {sorted(reports)}"
        for rep in reports.values():
            if not rep["passed"] or rep["family"] != LIFTED_FAMILY or rep["metadata"]["M"] != 8:
                return f"{rep['check']}: passed={rep['passed']} family={rep['family']}"
        leak = reports["hashing-bound-I-prime"]
        rhs = min(leak["rhs_by_s"].values())
        if not (leak["metadata"]["avg_I"] <= leak["lhs"] + TOL and leak["lhs"] <= rhs + TOL):
            return f"avg_I <= lhs <= rhs fails: {leak['metadata']['avg_I']}, {leak['lhs']}, {rhs}"
        expo = reports["hashing-bound-exp-Ibar-prime"]
        for s, lhs in expo["metadata"]["lhs_by_s"].items():
            if not lhs <= expo["rhs_by_s"][s] + TOL:
                return f"exp bound at s={s}: lhs {lhs} > rhs {expo['rhs_by_s'][s]}"
        return None

    def check(self, outputs):
        return _check_each(outputs, self._check_one)


class Sweep:
    """``qpa sweep --steps 201`` on a random |A|=4, d_E=3 state.

    Correctness: every row against a brute-force grid maximisation over the
    joint-matrix oracles ``renyi_cond_joint`` and ``phi_quantity_joint``, a
    few rows against a fine local grid, and, for the seeds stored in
    ``reference/sweep.json``, sampled rows against the values recorded there.
    """

    GRID = 1001  # brute grid points over s in [0, 1] and t in [0, 1/2]
    GRID_TOL = 2e-6  # a grid maximum of a smooth objective is this close to the true one
    SPOT_ROWS = (20, 60, 100)
    VALUE_ABS, VALUE_REL, ARG_ABS = 1e-9, 1e-7, 1e-5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = write_state(workdir / "sweep_state.json", random_state_doc(seed, 4, 3))
        self.argv = ["sweep", "--state", self.path, "--steps", str(SWEEP_STEPS)]

    def op(self):
        return run_cli(self.argv)

    def _check_one(self, out) -> str | None:
        code, stdout, stderr = out
        if code != 0 or stderr:
            return f"exit {code}, stderr {stderr[:200]!r}"
        lines = stdout.splitlines()
        if lines[0] != SWEEP_HEADER or len(lines) != SWEEP_STEPS + 1:
            return f"header {lines[0]!r}, {len(lines) - 1} rows"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        r_max = math.log(4)
        rates = r_max * np.arange(SWEEP_STEPS) / (SWEEP_STEPS - 1)
        if not np.allclose(rows[:, 0], rates, rtol=1e-11, atol=1e-12):
            return "rate column is not the uniform grid on [0, log 4]"
        if not np.allclose(rows[:, 7], rows[:, 1] / 2, rtol=1e-11, atol=1e-13):
            return "e_d_lower != e_H / 2"
        return self._check_reference(rows) or self._check_oracle(rows)

    def _check_reference(self, rows) -> str | None:
        stored = json.loads((REFERENCE_DIR / "sweep.json").read_text(encoding="utf-8"))
        ref = stored["seeds"].get(str(self.seed))
        if ref is None:
            return None
        for idx, ref_row in zip(stored["rows"], ref):
            for col, (x, r) in enumerate(zip(rows[idx], ref_row)):
                is_arg = col in (2, 4, 6)
                if is_arg and rows[idx][col - 1] <= 1e-9:
                    continue  # the argument of a vanishing exponent is not determined
                ok = abs(x - r) <= self.ARG_ABS if is_arg else _close(x, r, self.VALUE_ABS, self.VALUE_REL)
                if not ok:
                    return f"row {idx} column {col}: {x:.15g} vs stored {r:.15g}"
        return None

    def _check_oracle(self, rows) -> str | None:
        state = qpa.load_state_json(Path(self.path).read_text(encoding="utf-8"))
        s = np.linspace(0.0, 1.0, self.GRID)
        t = np.linspace(0.0, 0.5, self.GRID)
        h = np.array([quantities.renyi_cond_joint(state, float(x)) for x in s])
        phi = np.array([quantities.phi_quantity_joint(state, float(x)) for x in t])
        for i, (rate, e_h, s_h, e_hq, _, e_pq, _, _) in enumerate(rows):
            brute = (
                max(0.0, float(np.max(s * (h - rate)))),
                max(0.0, float(np.max(s / (2 - s) * (h - rate)))),
                max(0.0, float(np.max(-(phi + t * rate) / (2 * (1 - t))))),
            )
            for label, got, want in zip(("e_H", "e_H_q", "e_phi_q"), (e_h, e_hq, e_pq), brute):
                if not (want - TOL <= got <= want + self.GRID_TOL):
                    return f"row {i} {label} = {got:.15g}, brute grid gives {want:.15g}"
            if i in self.SPOT_ROWS and e_h > 0.0:
                fine = np.linspace(max(0.0, s_h - 1e-3), min(1.0, s_h + 1e-3), 201)
                best = max(x * (quantities.renyi_cond_joint(state, float(x)) - rate) for x in fine)
                if abs(e_h - best) > 1e-8:
                    return f"row {i} e_H = {e_h:.15g}, fine grid around s* gives {best:.15g}"
        return None

    def check(self, outputs):
        return _check_each(outputs, self._check_one)


class Certify:
    """``collision_stats(make_family(...))`` over a fixed set of matrix families.

    One operation certifies the whole set; the seed does not change it.
    """

    def __init__(self, seed: int, workdir: Path):
        self.families = list(CERTIFY_FAMILIES)

    def op(self):
        return tuple(qpa.collision_stats(qpa.make_family(*spec)) for spec in self.families)

    def _check_one(self, reports) -> str | None:
        for (kind, q, k, m), rep in zip(self.families, reports):
            bound = Fraction(1, q**m)
            if not (isinstance(rep.max_collision_prob, Fraction) and rep.max_collision_prob == bound and rep.is_universal2 is True):
                return f"{kind} q={q} k={k} m={m}: {rep.max_collision_prob}, universal2={rep.is_universal2}"
        return None

    def check(self, outputs):
        return _check_each(outputs, self._check_one)


WORKLOADS = {"suite": Suite, "lifted": Lifted, "sweep": Sweep, "certify": Certify}
