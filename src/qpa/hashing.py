"""Enumerable universal_2 hash families over small prime fields.

Two matrix constructions are provided: full Toeplitz matrices and the
cheaper concatenation of a Toeplitz block with the identity, which needs
only ``k - 1`` field elements of randomness for input length ``k``. Domain
symbols are identified with ``{0 .. q^k - 1}`` through little-endian base-q
digits (digit 0 is least significant), and output digit vectors combine the
same way; classical alphabets must use the same indexing.
``member_tables`` enumerates members by parameter index as one ``(members, |A|)``
array over the family's uint8 digit table; ``member_function`` is its one-member case.

Collision probabilities are certified with exact integer counting; the
universal_2 property is a combinatorial claim, so no floating tolerance is
acceptable there; for the matrix kinds each nonzero input difference is one
linear system over F_q, whose row i holds the difference's reversed
Toeplitz digits (from the same digit table) as one contiguous block from
column i on, and all of them are row-reduced together mod q. The
elimination walks the m rows, not the parameter columns, since a system
has far fewer rows: each row, scaled to a leading 1 at its first nonzero
left entry, clears that column from the rows below it, unless no later
row of any system is nonzero there (as in every difference system: row i
pivots at its highest nonzero digit, one column right of row i - 1), and
a row left zero on the left with a nonzero rhs makes its system
inconsistent. The update reads the pivot column from a contiguous copy,
and every reduction mod q is a multiply-high, not a division.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

from .cqstate import ClassicalFunction
from .hermitian import SizeCapError

SUPPORTED_PRIMES = (2, 3, 5)
DOMAIN_CAP = 2**16
MEMBER_CAP = 2**20
PAIRWISE_DOMAIN_CAP = 2**10  # explicit member lists, true all-pairs scan
MATRIX_DOMAIN_CAP = 2**13  # matrix kinds: one linear system per nonzero difference
_CHUNK = 1024  # systems row-reduced together, so the stack holds _CHUNK * m * (n_params + 1) entries
# entries stay in 0..q-1 and an elimination step adds a product of two of them to one, so it forms
# at most (q - 1) + (q - 1)**2, which must fit the first dtype; _mod_q forms x * ceil(256 / q) in the second
_KERNEL_DTYPE, _REDUCTION_DTYPE = np.uint8, np.uint16

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


def _digits(x, q: int, width: int) -> np.ndarray:
    """Little-endian base-q digits of an int or an int array, on a new last axis."""
    x = np.asarray(x, dtype=np.int64)
    return np.stack([(x // q**i) % q for i in range(width)], axis=-1)


def _digit_table(q: int, width: int) -> np.ndarray:
    """``_digits(np.arange(q**width), q, width)`` as uint8, by repeat and tile instead of division."""
    digit = np.arange(q, dtype=_KERNEL_DTYPE)
    return np.stack([np.tile(np.repeat(digit, q**i), q ** (width - 1 - i)) for i in range(width)], axis=-1)


def _mod_q(x: np.ndarray, q: int) -> np.ndarray:
    """``x % q`` for uint8 entries up to (q - 1) + (q - 1)**2, where ``(x * ceil(256 / q)) >> 8`` is ``x // q``."""
    quotient = (x.astype(_REDUCTION_DTYPE) * _REDUCTION_DTYPE(-(-256 // q))) >> _REDUCTION_DTYPE(8)
    return x - quotient.astype(_KERNEL_DTYPE) * _KERNEL_DTYPE(q)


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


def _toeplitz_block(family: HashFamily) -> tuple[int, int]:
    """Width of a member's m x width Toeplitz block and its parameter count ``m + width - 1``.

    Toeplitz members are all block; Toeplitz-identity members ``X a1 + a2``
    have it on the first ``k - m`` digits and the identity on the last m.
    """
    width = family.k if family.kind == KIND_TOEPLITZ else family.k - family.m
    return width, family.m + width - 1


def _member_matrices(family: HashFamily, indices: np.ndarray) -> np.ndarray:
    """Members' m x k matrices over F_q, one per index: the Toeplitz block, then the identity block if any."""
    m = family.m
    width, n_params = _toeplitz_block(family)
    mats = np.zeros((len(indices), m, family.k), dtype=np.int64)
    if width:  # a Toeplitz-identity family with k = m has no Toeplitz block
        mats[:, :, :width] = _digits(indices, family.q, n_params)[:, _toeplitz_index_grid(m, width)]
    if family.kind == KIND_MODIFIED:
        mats[:, :, width:] = np.eye(m, dtype=np.int64)
    return mats


def member_tables(family: HashFamily, start: int, stop: int) -> np.ndarray:
    """Input-to-output tables of members ``start .. stop - 1`` at once, as a (members, |A|) array.

    For the matrix kinds, row ``x`` holds the output indices of ``dom @ mat_x.T % q``
    over the base-q digits of every input; explicit lists give their tables.
    """
    if not (0 <= start < stop <= family.member_count):
        raise ValueError(f"member range {start}..{stop - 1} outside 0..{family.member_count - 1}")
    if family.kind == KIND_EXPLICIT:
        return np.array(family.tables[start:stop], dtype=np.int64)
    q, k, m = family.q, family.k, family.m
    mats = _member_matrices(family, np.arange(start, stop))
    dom = _digit_table(q, k)  # (|A|, k)
    out_digits = (dom @ mats.transpose(0, 2, 1)) % q  # (members, |A|, m)
    return out_digits @ q ** np.arange(m, dtype=np.int64)


def member_function(family: HashFamily, index: int) -> ClassicalFunction:
    """Materialize one member's full input-to-output table."""
    if not (0 <= index < family.member_count):
        raise ValueError(f"member index {index} outside 0..{family.member_count - 1}")
    table = tuple(member_tables(family, index, index + 1)[0].tolist())
    return ClassicalFunction(family.domain_size, family.range_size, table)


@dataclasses.dataclass(frozen=True)
class CollisionReport:
    max_collision_prob: Fraction
    is_universal2: bool
    # matrix kinds: the smallest difference index (base-q digits of a1 - a2) of maximal count, 1 if none
    # collides; explicit lists: the first worst pair a1 < a2 packed as a1 * |A| + a2, 0 if none collides
    worst_input: int


def _difference_systems(family: HashFamily, diffs: np.ndarray) -> np.ndarray:
    """(n_params + 1, m, N) stack of systems over F_q, solved by the members sending each row of ``diffs`` to zero."""
    q, m = family.q, family.m
    width, n_params = _toeplitz_block(family)
    digits = np.ascontiguousarray(diffs.T, dtype=_KERNEL_DTYPE)  # (k, N)
    aug = np.zeros((n_params + 1, m, len(diffs)), dtype=_KERNEL_DTYPE)
    for i in range(m):  # aug[p, i] = diff[i + width - 1 - p]: row i holds the reversed digits from column i on
        aug[i : i + width, i] = digits[:width][::-1]
    if family.kind == KIND_MODIFIED:
        aug[n_params] = _mod_q(_KERNEL_DTYPE(q) - digits[width:], q)  # -diff2; full Toeplitz has rhs 0
    return aug


def _solution_dims(aug: np.ndarray, q: int) -> np.ndarray:
    """Solution-space dimension over F_q of each system in ``aug`` (n_params + 1, rows, N), -1 if none; in place.

    Forward elimination row by row, all N systems at once: a row's pivot is
    its first nonzero left entry, and the row, scaled to a leading 1, clears
    that column from every later row. A row left zero on the left adds no
    rank; a nonzero rhs there makes its system inconsistent. A step whose
    multipliers (the later rows' pivot-column entries) are all zero would
    add only zeros, so it is skipped: every step, on difference systems.
    """
    n_params, rows, n = aug.shape[0] - 1, aug.shape[1], aug.shape[2]
    inverse = np.array([0] + [pow(v, q - 2, q) for v in range(1, q)], dtype=_KERNEL_DTYPE)
    systems = np.arange(n)
    rank = np.zeros(n, dtype=np.int64)
    inconsistent = np.zeros(n, dtype=bool)
    for r in range(rows):
        row = aug[:, r]  # (n_params + 1, N)
        nonzero = row[:-1] != 0
        has_pivot = nonzero.any(axis=0)
        rank += has_pivot
        inconsistent |= ~has_pivot & (row[-1] != 0)
        if r + 1 == rows or not n_params:  # no later row to clear, or no column to clear
            continue
        pivot = nonzero.argmax(axis=0)
        below = aug[:, r + 1 :]  # (n_params + 1, rows - r - 1, N), a view
        factor = below[pivot, :, systems]  # (N, rows - r - 1): each later row's pivot entry
        if not factor.any():  # every multiplier zero: the update would add only zeros
            continue
        # the row scaled to a leading 1; zero (a no-op) without a pivot
        pivot_row = _mod_q(row * (inverse[row[pivot, systems]] * has_pivot), q)
        below += _mod_q(_KERNEL_DTYPE(q) - np.ascontiguousarray(factor.T), q) * pivot_row[:, None]
        below[...] = _mod_q(below, q)
    return np.where(inconsistent, -1, n_params - rank)


def collision_stats(family: HashFamily) -> CollisionReport:
    """Exact worst-pair collision probability over the whole family.

    For matrix members ``f(a1) = f(a2)`` iff ``f(a1 - a2) = 0``, so the
    exact member counts of the nonzero digit differences cover every input
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
    worst_dim, worst_diff = -1, 1
    table = _digit_table(family.q, family.k)
    for start in range(1, family.domain_size, _CHUNK):  # skip the zero difference
        dims = _solution_dims(_difference_systems(family, table[start : start + _CHUNK]), family.q)
        if dims.max() > worst_dim:
            worst_dim, worst_diff = int(dims.max()), start + int(dims.argmax())
    prob = Fraction(family.q**worst_dim if worst_dim >= 0 else 0, family.member_count)
    return CollisionReport(prob, prob <= bound, worst_diff)


def parse_family(descriptor: str) -> HashFamily:
    """Parse a CLI descriptor such as ``toeplitz:q=2,k=4,m=2``; each of q, k, m exactly once."""
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
        key = key.strip()
        if key not in ("q", "k", "m") or key in fields:
            raise ValueError(f"{'repeated' if key in fields else 'unknown'} family field {key!r} in {descriptor!r}")
        try:
            fields[key] = int(val)
        except ValueError as exc:
            raise ValueError(f"bad family field {part!r} in {descriptor!r}") from exc
    missing = {"q", "k", "m"} - fields.keys()
    if missing:
        raise ValueError(f"family descriptor {descriptor!r} missing {sorted(missing)}")
    return make_family(kind, fields["q"], fields["k"], fields["m"])
