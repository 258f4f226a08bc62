"""Enumerable universal_2 hash families over small prime fields.

Two matrix constructions are provided: full Toeplitz matrices and the
cheaper concatenation of a Toeplitz block with the identity, which needs
only ``k - 1`` field elements of randomness for input length ``k``. Domain
symbols are identified with ``{0 .. q^k - 1}`` through little-endian base-q
digits (digit 0 is least significant), and output digit vectors combine the
same way; classical alphabets must use the same indexing.

A matrix member is linear in its parameter vector, so one band encodes the
whole family: ``_difference_systems`` writes, for each input ``a`` (a column
of the digit-major table that ``_digit_table`` builds), the linear system
over F_q whose solutions are the members sending ``a`` to zero.
``member_tables`` reads every member's outputs off that band, taken over
the whole domain, and ``member_function`` is its one-member case.
``collision_stats`` row-reduces the same band over the nonzero input
differences in one stack, skipping each step that the systems' echelon form
leaves nothing to do, and counts each system's solutions exactly, since
``f(a1) = f(a2)`` iff ``f(a1 - a2) = 0``; the universal_2 property is a
combinatorial claim, so no floating tolerance is acceptable there. The
certificate thus covers the very members that are hashed.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

from .cqstate import ClassicalFunction, clipped
from .hermitian import SizeCapError

SUPPORTED_PRIMES = (2, 3, 5)
DOMAIN_CAP = 2**16
MEMBER_CAP = 2**20
PAIRWISE_DOMAIN_CAP = 2**10  # explicit member lists, true all-pairs scan
# matrix kinds: one system per nonzero difference, one uint8 stack of (n_params + 1) * m * (q^k - 1) entries; under
# MEMBER_CAP the largest, toeplitz:q=2,k=13,m=8 (21 * 8 * 8191) and modified_toeplitz:q=2,k=13,m=13, are about 1.4 MB
MATRIX_DOMAIN_CAP = 2**13
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
    """Little-endian base-q digits of an int or an int array, on a new last axis (of length 0 for width 0)."""
    return (np.asarray(x, dtype=np.int64)[..., None] // q ** np.arange(width, dtype=np.int64)) % q


def _digit_table(q: int, width: int) -> np.ndarray:
    """``_digits(np.arange(q**width), q, width).T`` as uint8, digit-major (width, q**width), by repeat and tile."""
    digit = np.arange(q, dtype=_KERNEL_DTYPE)
    return np.stack([np.tile(np.repeat(digit, q**i), q ** (width - 1 - i)) for i in range(width)])


def _mod_q(x: np.ndarray, q: int) -> np.ndarray:
    """``x % q`` for uint8 entries up to (q - 1) + (q - 1)**2, where ``(x * ceil(256 / q)) >> 8`` is ``x // q``."""
    quotient = (x.astype(_REDUCTION_DTYPE) * _REDUCTION_DTYPE(-(-256 // q))) >> _REDUCTION_DTYPE(8)
    return x - quotient.astype(_KERNEL_DTYPE) * _KERNEL_DTYPE(q)


def make_family(kind: str, q: int, k: int, m: int) -> HashFamily:
    """Family descriptor for the Toeplitz or Toeplitz-identity construction."""
    if q not in SUPPORTED_PRIMES:
        raise ValueError(f"field order {clipped(q)} not a supported prime {SUPPORTED_PRIMES}")
    if not (1 <= m <= k):
        raise ValueError(f"need 1 <= m <= k, got m={clipped(m)}, k={clipped(k)}")
    if k >= DOMAIN_CAP.bit_length() or q**k > DOMAIN_CAP:  # q >= 2: a huge k fails before any q**k
        raise SizeCapError(f"domain size q^k = {q}^{clipped(k)} exceeds cap {DOMAIN_CAP}")
    if kind == KIND_TOEPLITZ:
        count = q ** (m + k - 1)
    elif kind == KIND_MODIFIED:
        count = q ** (k - 1)
    else:
        raise ValueError(f"unknown family kind {clipped(kind)!r}")
    if count > MEMBER_CAP:
        raise SizeCapError(f"member count {count} exceeds cap {MEMBER_CAP}")
    return HashFamily(kind, q, k, m, q**k, q**m, count)


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


def member_tables(family: HashFamily, start: int, stop: int) -> np.ndarray:
    """Input-to-output tables of members ``start .. stop - 1`` at once, as a (members, |A|) array.

    For the matrix kinds, member ``x`` reads its output digits off the band
    that ``collision_stats`` solves, taken over every input ``a``: digit i is
    ``(sum_p x_p B[p, i, a] - B[-1, i, a]) mod q``, zero exactly when ``x``
    solves ``a``'s system. Explicit lists give their tables.
    """
    if not (0 <= start < stop <= family.member_count):
        raise ValueError(f"member range {start}..{stop - 1} outside 0..{family.member_count - 1}")
    if family.kind == KIND_EXPLICIT:
        return np.array(family.tables[start:stop], dtype=np.int64)
    q, m = family.q, family.m
    band = _difference_systems(family, _digit_table(q, family.k))  # (n_params + 1, m, |A|)
    params = _digits(np.arange(start, stop), q, len(band) - 1)
    # weight q - 1 on the rhs subtracts it mod q; the float64 sums are exact (each at most
    # (n_params + 1) (q - 1)^2) and nonnegative, so fmod reduces them
    coefficients = np.hstack([params, np.full((len(params), 1), q - 1)]).astype(np.float64)
    out_digits = np.fmod(coefficients @ band.reshape(len(band), -1), q).reshape(len(params), m, -1)
    return (q ** np.arange(m, dtype=np.float64) @ out_digits).astype(np.int64)


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


def _difference_systems(family: HashFamily, digits: np.ndarray) -> np.ndarray:
    """(n_params + 1, m, N) systems over F_q, solved by the members sending each column of ``digits`` (k, N) to zero."""
    q, m = family.q, family.m
    width, n_params = _toeplitz_block(family)
    aug = np.zeros((n_params + 1, m, digits.shape[1]), dtype=_KERNEL_DTYPE)
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
    rank; a nonzero rhs there makes its system inconsistent. Step r is
    skipped, with no gather, unless a system with a pivot in row r has a
    later row whose first nonzero (kept as a score) lies at or left of it:
    a row is zero left of its first nonzero, and a pivotless row scales to
    zero. Difference systems are in strict echelon form, so they skip all.
    """
    n_params, rows, n = aug.shape[0] - 1, aug.shape[1], aug.shape[2]
    inverse = np.array([0] + [pow(v, q - 2, q) for v in range(1, q)], dtype=_KERNEL_DTYPE)
    weights = np.arange(n_params, 0, -1, dtype=np.min_scalar_type(n_params))[:, None]
    # (rows, N): n_params minus each row's first nonzero column, 0 if none; scored row by row, since one pass
    # over the whole stack would fault in temporaries of its size on every call
    scores = np.stack([((aug[:-1, i] != 0) * weights).max(axis=0, initial=0) for i in range(rows)])
    rank = np.zeros(n, dtype=np.int64)
    inconsistent = np.zeros(n, dtype=bool)
    for r in range(rows):
        score, has_pivot = scores[r], scores[r] != 0
        rank += has_pivot
        inconsistent |= ~has_pivot & (aug[-1, r] != 0)
        if not (has_pivot & (scores[r + 1 :] >= score)).any():  # no later row starts at or left of a pivot
            continue
        row = aug[:, r]  # (n_params + 1, N)
        systems = np.arange(n)
        pivot = np.where(has_pivot, n_params - score.astype(np.intp), 0)  # 0 if none
        # (rows - r - 1, N): each later row's pivot entry, gathered by flat index (from a copy if aug is strided)
        factor = aug.reshape(-1)[pivot * (rows * n) + systems + (np.arange(r + 1, rows) * n)[:, None]]
        if not factor.any():  # every multiplier zero: the update would add only zeros
            continue
        # the row scaled to a leading 1; zero (a no-op) without a pivot
        pivot_row = _mod_q(row * (inverse[row[pivot, systems]] * has_pivot), q)
        below = aug[:, r + 1 :]  # (n_params + 1, rows - r - 1, N), a view
        below += _mod_q(_KERNEL_DTYPE(q) - factor, q) * pivot_row[:, None]
        below[...] = _mod_q(below, q)
        for i in range(r + 1, rows):  # the updated rows' new first nonzeros
            scores[i] = ((aug[:-1, i] != 0) * weights).max(axis=0, initial=0)
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
    table = _digit_table(family.q, family.k)
    dims = _solution_dims(_difference_systems(family, table[:, 1:]), family.q)  # skip the zero difference
    worst_dim, worst_diff = int(dims.max()), 1 + int(dims.argmax())  # argmax: the first, so smallest, worst
    prob = Fraction(family.q**worst_dim if worst_dim >= 0 else 0, family.member_count)
    return CollisionReport(prob, prob <= bound, worst_diff)


def parse_family(descriptor: str) -> HashFamily:
    """Parse a CLI descriptor such as ``toeplitz:q=2,k=4,m=2``; each of q, k, m exactly once."""
    kind, _, rest = descriptor.partition(":")
    kind = kind.strip()
    if kind not in (KIND_TOEPLITZ, KIND_MODIFIED):
        raise ValueError(f"unknown family kind {clipped(kind)!r} in {clipped(descriptor)!r}")
    fields = {}
    for part in filter(None, map(str.strip, rest.split(","))):
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in ("q", "k", "m") or key in fields:
            which = "repeated" if key in fields else "unknown"
            raise ValueError(f"{which} family field {clipped(key)!r} in {clipped(descriptor)!r}")
        try:
            fields[key] = int(val)
        except ValueError as exc:
            raise ValueError(f"bad family field {clipped(part)!r} in {clipped(descriptor)!r}") from exc
    missing = {"q", "k", "m"} - fields.keys()
    if missing:
        raise ValueError(f"family descriptor {clipped(descriptor)!r} missing {sorted(missing)}")
    return make_family(kind, fields["q"], fields["k"], fields["m"])
