"""Regenerate the stored 50-digit member reference of the complex lifted family.

    python3 tests/make_member_reference.py

Writes tests/data/complex_lifted_member_reference.json: ``I``, ``I'``,
``Ibar`` and ``Ibar'`` to 50 digits, from ``member_oracle.member_references``,
for the 5th tensor power of tests/data/complex_qubit_state.json (d_E = 32)
and each member of its ``modified_toeplitz:q=2,k=5,m=3`` family. One mpmath
eigensystem at d = 32 takes seconds, and the run makes about 300 of them
(7 minutes on one core of a 2-vCPU x86-64 host), so the tests read this file
instead of running the reference. It records the SHA-256 of the state file,
the family descriptor and the SHA-256 of the family's member tables, which a
test compares with the current ones. Run it only when one of those changes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from member_oracle import member_references  # noqa: E402
from qpa.cqstate import load_state_json, tensor_power  # noqa: E402
from qpa.hashing import member_tables, parse_family  # noqa: E402
from renyi_oracle import DPS  # noqa: E402

DATA = HERE / "data"
STATE_FILE = "complex_qubit_state.json"
POWER = 5
FAMILY = "modified_toeplitz:q=2,k=5,m=3"
REFERENCE = DATA / "complex_lifted_member_reference.json"


def tables_sha256(family) -> str:
    """SHA-256 of the family's member tables, written as a JSON list of lists."""
    tables = member_tables(family, 0, family.member_count).tolist()
    return hashlib.sha256(json.dumps(tables).encode()).hexdigest()


def main() -> int:
    state_bytes = (DATA / STATE_FILE).read_bytes()
    family = parse_family(FAMILY)
    state = tensor_power(load_state_json(state_bytes.decode("utf-8")), POWER)
    parent, members = member_references(state, family)

    def strings(values):
        return {key: mpmath.nstr(value, DPS) for key, value in values.items()}

    head = {
        "dps": DPS,
        "family": FAMILY,
        "power": POWER,
        "state_file": STATE_FILE,
        "state_sha256": hashlib.sha256(state_bytes).hexdigest(),
        "tables_sha256": tables_sha256(family),
        "parent": strings(parent),
    }
    # one member per line, so that a diff of the reference shows which members moved
    body = ",\n".join(json.dumps(strings(values), sort_keys=True) for values in members)
    text = json.dumps(head, indent=1, sort_keys=True)[: -len("\n}")] + ',\n "members": [\n' + body + "\n]}\n"
    REFERENCE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
