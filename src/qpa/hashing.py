"""Enumerable universal_2 hash families over small prime fields.

Two matrix constructions are provided: full Toeplitz matrices and the
cheaper concatenation of a Toeplitz block with the identity, which needs
only ``k - 1`` field elements of randomness for input length ``k``. Domain
symbols are identified with ``{0 .. q^k - 1}`` through little-endian base-q
digits (digit 0 is least significant), and output digit vectors combine the
same way; classical alphabets must use the same indexing.

Collision probabilities are certified with exact integer counting; the
universal_2 property is a combinatorial claim, so no floating tolerance is
acceptable there.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Iterator

import numpy as np

from .cqstate import ClassicalFunction
from .hermitian import SizeCapError

SUPPORTED_PRIMES = (2, 3, 5)
DOMAIN_CAP = 2**16
MEMBER_CAP = 2**20
PAIRWISE_DOMAIN_CAP = 2**10  # explicit member lists, true all-pairs scan
MATRIX_DOMAIN_CAP = 2**13  # matrix kinds, per-difference solution counting

KIND_TOEPLITZ = "toeplitz"
KIND_MODIFIED = "modified_toeplitz"
KIND_EXPLICIT = "explicit_list"


@dataclasses.dataclass(frozen=True)
class HashFamily:
    """Descriptor of an enumerable hash family from ``A`` onto ``{0..M-1}``."""

    kind: str
    q: int | None
    k: int | None
    m: int | None
    domain_size: int
    range_size: int
    member_count: int
    tables: tuple[tuple[int, ...], ...] | None = None

    def describe(self) -> str:
        if self.kind == KIND_EXPLICIT:
            return f"{self.kind}:|A|={self.domain_size},M={self.range_size},n={self.member_count}"
        return f"{self.kind}:q={self.q},k={self.k},m={self.m}"


@dataclasses.dataclass(frozen=True)
class FamilyMember:
    """One enumerated member: its parameter index and materialized table."""

    index: int
    function: ClassicalFunction


def _digits(x, q: int, width: int) -> np.ndarray:
    """Little-endian base-q digits of an int or an int array, on a new last axis."""
    x = np.asarray(x, dtype=np.int64)
    return np.stack([(x // q**i) % q for i in range(width)], axis=-1)


def _toeplitz_index_grid(rows: int, cols: int) -> np.ndarray:
    """Map (i, j) to the diagonal-parameter index ``i - j + cols - 1``."""
    i = np.arange(rows)[:, None]
    j = np.arange(cols)[None, :]
    return i - j + cols - 1


def make_family(kind: str, q: int, k: int, m: int) -> HashFamily:
    """Family descriptor for the Toeplitz or Toeplitz-identity construction."""
    if q not in SUPPORTED_PRIMES:
        raise ValueError(f"field order {q} not a supported prime {SUPPORTED_PRIMES}")
    if not (1 <= m <= k):
        raise ValueError(f"need 1 <= m <= k, got m={m}, k={k}")
    domain = q**k
    if domain > DOMAIN_CAP:
        raise SizeCapError(f"domain size {domain} exceeds cap {DOMAIN_CAP}")
    if kind == KIND_TOEPLITZ:
        count = q ** (m + k - 1)
    elif kind == KIND_MODIFIED:
        count = q ** (k - 1)
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    if count > MEMBER_CAP:
        raise SizeCapError(f"member count {count} exceeds cap {MEMBER_CAP}")
    return HashFamily(kind, q, k, m, domain, q**m, count)


def make_explicit_family(tables, range_size: int) -> HashFamily:
    """Family given by explicit member tables over a shared domain."""
    tups = tuple(tuple(int(t) for t in table) for table in tables)
    if not tups:
        raise ValueError("explicit family needs at least one member")
    domain = len(tups[0])
    if any(len(t) != domain for t in tups):
        raise ValueError("member tables must share one domain")
    if any(not (0 <= t < range_size) for tab in tups for t in tab):
        raise ValueError("table entry outside the declared range")
    return HashFamily(KIND_EXPLICIT, None, None, None, domain, range_size, len(tups), tups)


def _member_matrix(family: HashFamily, index: int) -> np.ndarray:
    """Member's m x k matrix over F_q (Toeplitz-identity members are padded)."""
    q, k, m = family.q, family.k, family.m
    if family.kind == KIND_TOEPLITZ:
        params = _digits(index, q, m + k - 1)
        return params[_toeplitz_index_grid(m, k)]
    # modified: f(a) = X a1 + a2 with a1 the first k-m digits, a2 the last m
    mat = np.zeros((m, k), dtype=np.int64)
    if k > m:
        params = _digits(index, q, k - 1)
        mat[:, : k - m] = params[_toeplitz_index_grid(m, k - m)]
    mat[:, k - m :] = np.eye(m, dtype=np.int64)
    return mat


def member_function(family: HashFamily, index: int) -> ClassicalFunction:
    """Materialize one member's full input-to-output table."""
    if not (0 <= index < family.member_count):
        raise ValueError(f"member index {index} outside 0..{family.member_count - 1}")
    if family.kind == KIND_EXPLICIT:
        return ClassicalFunction(family.domain_size, family.range_size, family.tables[index])
    q, k, m = family.q, family.k, family.m
    mat = _member_matrix(family, index)
    dom = _digits(np.arange(family.domain_size), q, k)  # (|A|, k)
    out_digits = (dom @ mat.T) % q  # (|A|, m)
    weights = q ** np.arange(m, dtype=np.int64)
    table = tuple(int(x) for x in out_digits @ weights)
    return ClassicalFunction(family.domain_size, family.range_size, table)


def enumerate_members(family: HashFamily) -> Iterator[FamilyMember]:
    """All members in parameter-index order."""
    for index in range(family.member_count):
        yield FamilyMember(index, member_function(family, index))


@dataclasses.dataclass(frozen=True)
class CollisionReport:
    max_collision_prob: Fraction
    is_universal2: bool
    worst_input: int  # colliding pair difference (matrix kinds) or packed pair


def _solution_count_mod_prime(rows: list[list[int]], rhs: list[int], q: int, n_params: int) -> int:
    """Exact number of parameter vectors solving ``rows @ x = rhs`` over F_q."""
    aug = [[v % q for v in row] + [rhs[i] % q] for i, row in enumerate(rows)]
    rank = 0
    for col in range(n_params):
        pivot = next((i for i in range(rank, len(aug)) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = pow(aug[rank][col], q - 2, q)
        aug[rank] = [(v * inv) % q for v in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [(a - factor * b) % q for a, b in zip(aug[i], aug[rank])]
        rank += 1
    if any(aug[i][-1] for i in range(rank, len(aug))):
        return 0
    return q ** (n_params - rank)


def _colliding_member_count(family: HashFamily, diff: np.ndarray) -> int:
    """Members sending the nonzero input difference ``diff`` to zero.

    The member matrix is linear in its parameter vector, so the count is
    the number of solutions of one small linear system over F_q.
    """
    q, k, m = family.q, family.k, family.m
    if family.kind == KIND_TOEPLITZ:
        # (T_x diff)_i = sum_p x_p diff[i + k - 1 - p]
        n_params = m + k - 1
        rows = [
            [int(diff[i + k - 1 - p]) if 0 <= i + k - 1 - p < k else 0 for p in range(n_params)]
            for i in range(m)
        ]
        rhs = [0] * m
    else:
        # f_x(diff) = X_x diff1 + diff2 = 0, X linear in the parameters
        n_params = k - 1
        width = k - m
        rows = [
            [int(diff[i + width - 1 - p]) if 0 <= i + width - 1 - p < width else 0 for p in range(n_params)]
            for i in range(m)
        ]
        rhs = [(-int(diff[width + i])) % q for i in range(m)]
    return _solution_count_mod_prime(rows, rhs, q, n_params)


def collision_stats(family: HashFamily) -> CollisionReport:
    """Exact worst-pair collision probability over the whole family.

    For matrix members ``f(a1) = f(a2)`` iff ``f(a1 - a2) = 0``, so one
    exact member count per nonzero digit difference covers every input
    pair; explicit lists get a true all-pairs scan. Integer arithmetic
    throughout, result as a Fraction.
    """
    bound = Fraction(1, family.range_size)
    if family.kind == KIND_EXPLICIT:
        if family.domain_size > PAIRWISE_DOMAIN_CAP:
            raise SizeCapError(
                f"domain size {family.domain_size} exceeds all-pairs cap {PAIRWISE_DOMAIN_CAP}"
            )
        tabs = np.array(family.tables, dtype=np.int64)  # (members, |A|)
        worst = 0
        worst_pair = 0
        for a1 in range(family.domain_size):
            eq = tabs[:, a1 + 1 :] == tabs[:, a1 : a1 + 1]
            if eq.size == 0:
                continue
            counts = eq.sum(axis=0)
            top = int(counts.max())
            if top > worst:
                worst = top
                worst_pair = a1 * family.domain_size + (a1 + 1 + int(counts.argmax()))
        prob = Fraction(worst, family.member_count)
        return CollisionReport(prob, prob <= bound, worst_pair)

    if family.domain_size > MATRIX_DOMAIN_CAP:
        raise SizeCapError(
            f"domain size {family.domain_size} exceeds difference-scan cap {MATRIX_DOMAIN_CAP}"
        )
    diffs = _digits(np.arange(1, family.domain_size), family.q, family.k)  # skip zero
    worst = 0
    worst_diff = 1
    for idx, diff in enumerate(diffs):
        count = _colliding_member_count(family, diff)
        if count > worst:
            worst = count
            worst_diff = idx + 1
    prob = Fraction(worst, family.member_count)
    return CollisionReport(prob, prob <= bound, worst_diff)


def parse_family(descriptor: str) -> HashFamily:
    """Parse a CLI descriptor such as ``toeplitz:q=2,k=4,m=2``."""
    kind, _, rest = descriptor.partition(":")
    kind = kind.strip()
    if kind not in (KIND_TOEPLITZ, KIND_MODIFIED):
        raise ValueError(f"unknown family kind {kind!r} in {descriptor!r}")
    fields = {}
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        try:
            fields[key.strip()] = int(val)
        except ValueError as exc:
            raise ValueError(f"bad family field {part!r} in {descriptor!r}") from exc
    missing = {"q", "k", "m"} - fields.keys()
    if missing:
        raise ValueError(f"family descriptor {descriptor!r} missing {sorted(missing)}")
    return make_family(kind, fields["q"], fields["k"], fields["m"])
