"""Regenerate the stored correctness references in perfbench/reference/.

    python3 perfbench/make_reference.py

Writes the slack of every suite check and, for sweep seeds 0-15, every
20th row of the exponent curve, as the current program computes them. Run
it only for a change that deliberately alters these numbers.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

SWEEP_SEEDS = range(16)
SWEEP_ROWS = list(range(0, workloads.SWEEP_STEPS, 20))


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        code, stdout, stderr = workloads.run_cli(["verify", "--suite", "full"])
        if code != 0 or stderr:
            raise SystemExit(f"suite failed: exit {code} {stderr}")
        lines = [[check, slack, state, family] for _, check, slack, state, family in workloads.parse_suite(stdout)]

        seeds = {}
        for seed in SWEEP_SEEDS:
            sweep = workloads.Sweep(seed, Path(tmp))
            code, stdout, stderr = sweep.op()
            if code != 0 or stderr:
                raise SystemExit(f"sweep seed {seed} failed: exit {code} {stderr}")
            rows = stdout.splitlines()[1:]
            seeds[str(seed)] = [[float(x) for x in rows[i].split(",")] for i in SWEEP_ROWS]

    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    # one entry per line, so that a diff of a reference shows which rows moved
    (out / "suite.json").write_text(
        '{"lines": [\n' + ",\n".join(json.dumps(line) for line in lines) + "\n]}\n", encoding="utf-8"
    )
    (out / "sweep.json").write_text(
        f'{{"rows": {json.dumps(SWEEP_ROWS)}, "seeds": {{\n'
        + ",\n".join(f"{json.dumps(seed)}: {json.dumps(rows)}" for seed, rows in seeds.items())
        + "\n}}\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
