import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hashing_oracle
from qpa import hashing
from qpa.hashing import (
    SUPPORTED_PRIMES,
    _solution_dims,
    collision_stats,
    make_explicit_family,
    make_family,
    member_function,
    member_tables,
    parse_family,
)
from qpa.hermitian import SizeCapError


def brute_force_collision_max(family):
    """All-pairs, all-members counting; the independent oracle."""
    tables = [member_function(family, i).table for i in range(family.member_count)]
    worst = 0
    for a1 in range(family.domain_size):
        for a2 in range(a1 + 1, family.domain_size):
            hits = sum(1 for t in tables if t[a1] == t[a2])
            worst = max(worst, hits)
    return Fraction(worst, family.member_count)


def test_make_family_counts():
    assert make_family("toeplitz", 2, 2, 1).member_count == 4
    assert make_family("modified_toeplitz", 2, 2, 1).member_count == 2
    assert make_family("modified_toeplitz", 3, 3, 1).member_count == 9
    assert make_family("toeplitz", 2, 3, 2).member_count == 2**4
    assert make_family("modified_toeplitz", 2, 1, 1).member_count == 1


def test_make_family_validation():
    with pytest.raises(ValueError):
        make_family("toeplitz", 4, 2, 1)  # not a supported prime
    with pytest.raises(ValueError):
        make_family("toeplitz", 2, 2, 3)  # m > k
    with pytest.raises(ValueError):
        make_family("mystery", 2, 2, 1)
    with pytest.raises(SizeCapError):
        make_family("toeplitz", 2, 17, 1)
    with pytest.raises(SizeCapError):
        make_family("toeplitz", 2, 16, 14)  # member count over the cap


def test_toeplitz_members_match_matrix_oracle():
    family = make_family("toeplitz", 2, 2, 1)
    assert family.member_count == 4
    # parameters (d0, d1) little-endian; row is [d1 d0] since T[0,j] = d[1-j]
    for idx in range(4):
        f = member_function(family, idx)
        d0, d1 = idx % 2, idx // 2
        row = np.array([d1, d0])
        for a in range(4):
            avec = np.array([a % 2, a // 2])
            assert f(a) == int(row @ avec) % 2, (idx, a)


def test_modified_member_hand_oracle():
    family = make_family("modified_toeplitz", 2, 2, 1)
    # X = 1: f(a) = a1 + a2 mod 2, the parity function
    assert member_function(family, 1).table == (0, 1, 1, 0)
    # X = 0: f(a) = a2, the high digit
    assert member_function(family, 0).table == (0, 0, 1, 1)
    with pytest.raises(ValueError):
        member_function(family, 2)


def test_identity_block_when_m_equals_k():
    family = make_family("modified_toeplitz", 2, 2, 2)
    # the Toeplitz block is empty; every parameter choice is the identity map
    assert family.member_count == 2
    for idx in range(family.member_count):
        assert member_function(family, idx).table == (0, 1, 2, 3)


def test_member_linearity():
    for family in (make_family("toeplitz", 3, 2, 2), make_family("modified_toeplitz", 3, 3, 2)):
        q, k = family.q, family.k
        for idx in range(family.member_count):
            f = member_function(family, idx)
            for a in range(family.domain_size):
                for b in range(family.domain_size):
                    da = np.array([(a // q**i) % q for i in range(k)])
                    db = np.array([(b // q**i) % q for i in range(k)])
                    c = int(np.sum((da + db) % q * q ** np.arange(k)))
                    fa = np.array([(f(a) // q**i) % q for i in range(family.m)])
                    fb = np.array([(f(b) // q**i) % q for i in range(family.m)])
                    fc = int(np.sum((fa + fb) % q * q ** np.arange(family.m)))
                    assert f(c) == fc, (family.kind, idx, a, b)


@pytest.mark.parametrize(
    "kind,q,k,m",
    [
        ("toeplitz", 2, 2, 1),
        ("toeplitz", 2, 3, 2),
        ("toeplitz", 2, 3, 3),
        ("toeplitz", 3, 2, 1),
        ("toeplitz", 3, 2, 2),
        ("modified_toeplitz", 2, 2, 1),
        ("modified_toeplitz", 2, 4, 2),
        ("modified_toeplitz", 3, 3, 1),
        ("modified_toeplitz", 3, 2, 2),
        ("modified_toeplitz", 5, 2, 1),
    ],
)
def test_collision_stats_match_brute_force(kind, q, k, m):
    family = make_family(kind, q, k, m)
    report = collision_stats(family)
    assert report.max_collision_prob == brute_force_collision_max(family)
    assert report.is_universal2
    assert report.max_collision_prob <= Fraction(1, family.range_size)


def test_collision_exact_values():
    assert collision_stats(make_family("toeplitz", 2, 2, 1)).max_collision_prob == Fraction(1, 2)
    assert collision_stats(make_family("modified_toeplitz", 2, 2, 1)).max_collision_prob == Fraction(1, 2)


def test_constant_family_not_universal():
    fam = make_explicit_family([(0, 0, 0, 0)], range_size=2)
    report = collision_stats(fam)
    assert report.max_collision_prob == Fraction(1, 1)
    assert not report.is_universal2


def test_explicit_family_validation():
    with pytest.raises(ValueError):
        make_explicit_family([], range_size=2)
    with pytest.raises(ValueError):
        make_explicit_family([(0, 1), (0, 1, 1)], range_size=2)
    with pytest.raises(ValueError):
        make_explicit_family([(0, 2)], range_size=2)


def test_enumeration_is_parameter_bijection():
    family = make_family("toeplitz", 2, 3, 1)
    tables = [tuple(row) for row in member_tables(family, 0, family.member_count).tolist()]
    assert len(tables) == family.member_count
    # the batch equals its one-member case, member by member
    assert tables == [member_function(family, i).table for i in range(family.member_count)]
    # distinct parameters give distinct matrices, hence distinct tables here
    assert len(set(tables)) == family.member_count


_SMALL_MATRIX_FAMILIES = [
    (kind, q, k, m)
    for q in SUPPORTED_PRIMES
    for k in range(1, 8)
    if q**k <= 125
    for m in range(1, k + 1)
    for kind in ("toeplitz", "modified_toeplitz")
]


@pytest.mark.parametrize("kind,q,k,m", _SMALL_MATRIX_FAMILIES)
def test_member_tables_match_the_textbook_matrices(kind, q, k, m):
    # every member, read off the certifier's band, against its matrix applied digit by digit
    family = make_family(kind, q, k, m)
    tables = member_tables(family, 0, family.member_count).tolist()
    assert tables == [hashing_oracle.member_table(family, i) for i in range(family.member_count)]


def test_parse_family():
    fam = parse_family("toeplitz:q=2,k=4,m=2")
    assert (fam.kind, fam.q, fam.k, fam.m) == ("toeplitz", 2, 4, 2)
    with pytest.raises(ValueError):
        parse_family("toeplitz:q=2,k=4")
    # an unknown field was ignored, and of a repeated one the last value won
    with pytest.raises(ValueError, match="unknown family field 'zz'"):
        parse_family("toeplitz:q=2,k=1,m=1,zz=7")
    with pytest.raises(ValueError, match="repeated family field 'm'"):
        parse_family("toeplitz:q=2,k=1,m=1,m=5")
    with pytest.raises(ValueError, match="repeated family field 'q'"):
        parse_family("modified_toeplitz:q=2,q=2,k=2,m=1")
    with pytest.raises(ValueError):
        parse_family("bogus:q=2,k=4,m=2")
    with pytest.raises(ValueError):
        parse_family("toeplitz:q=two,k=4,m=2")


def test_collision_stats_domain_cap():
    with pytest.raises(SizeCapError):
        collision_stats(make_family("toeplitz", 2, 14, 1))
    with pytest.raises(SizeCapError):
        collision_stats(make_explicit_family([tuple([0] * 2048)], range_size=2))


def batched_counts(family, diffs):
    """Member counts of the batched kernel for rows of base-q digits, passed digit-major as ``collision_stats`` does."""
    dims = _solution_dims(hashing._difference_systems(family, np.array(diffs).T), family.q)
    return [family.q ** int(d) if d >= 0 else 0 for d in dims]


def test_collision_count_probability_zero_difference():
    # inputs differing only in the identity-block digits never collide
    family = make_family("modified_toeplitz", 2, 2, 1)
    assert batched_counts(family, [[0, 1], [1, 0], [1, 1]]) == [0, 1, 1]


# every matrix family of both kinds over F_2, F_3, F_5 with |A| <= 729, k = m and k = 1 among them; none reaches a cap
ORACLE_FAMILIES = [
    make_family(kind, q, k, m)
    for q, k_max in ((2, 9), (3, 6), (5, 4))
    for k in range(1, k_max + 1)
    for m in range(1, k + 1)
    for kind in ("toeplitz", "modified_toeplitz")
]
# the perfbench certify families
BENCHMARK_FAMILIES = [
    ("toeplitz", 2, 13, 4),
    ("modified_toeplitz", 2, 13, 4),
    ("toeplitz", 3, 8, 3),
    ("modified_toeplitz", 5, 5, 2),
]


def test_batched_counts_match_scalar_oracle():
    for family in ORACLE_FAMILIES:
        counts = hashing_oracle.colliding_member_counts(family)
        assert batched_counts(family, hashing_oracle.nonzero_differences(family)) == counts, family.describe()
        assert collision_stats(family) == hashing_oracle.collision_report(family, counts), family.describe()


def test_one_elimination_per_matrix_family(monkeypatch):
    # every nonzero difference of a family is row-reduced in one stack; explicit lists never eliminate
    calls = []

    def spy(aug, q):
        calls.append(aug.shape[2])
        return _solution_dims(aug, q)

    monkeypatch.setattr(hashing, "_solution_dims", spy)
    families = [make_family(*spec) for spec in BENCHMARK_FAMILIES]
    for family in families:
        collision_stats(family)
    assert calls == [family.domain_size - 1 for family in families]
    collision_stats(make_explicit_family([(0, 1, 1, 0), (1, 0, 0, 1)], 2))
    assert len(calls) == len(families)


@pytest.mark.parametrize("spec", [("toeplitz", 2, 13, 8), ("modified_toeplitz", 2, 13, 13)])
def test_one_stack_stays_small_at_the_caps(spec):
    # the largest in-cap stacks, 21 * 8 and 13 * 13 uint8 entries for each of 8,191 differences
    family = make_family(*spec)
    tracemalloc.start()
    try:
        collision_stats(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def difference_systems(family):
    """``_difference_systems`` of every nonzero difference, sliced from the digit table as ``collision_stats`` does."""
    return hashing._difference_systems(family, hashing._digit_table(family.q, family.k)[:, 1:])


def test_difference_systems_match_the_scalar_systems():
    for family in ORACLE_FAMILIES:
        systems = [hashing_oracle.difference_system(family, diff) for diff in hashing_oracle.nonzero_differences(family)]
        n_params = hashing._toeplitz_block(family)[1]
        coeffs = np.array([rows for rows, _ in systems], dtype=np.int64).reshape(len(systems), family.m, n_params)
        rhs = np.array([rhs for _, rhs in systems], dtype=np.int64)
        expected = np.concatenate([coeffs, rhs[:, :, None]], axis=2).transpose(2, 1, 0)  # (n_params + 1, m, N)
        aug = difference_systems(family)
        assert aug.dtype == hashing._KERNEL_DTYPE, family.describe()
        np.testing.assert_array_equal(aug, expected, err_msg=family.describe())


def test_difference_systems_need_no_elimination_update():
    # _solution_dims skips a step unless a later row starts at or left of a pivot; on difference systems it must
    # skip every step, which strict echelon form guarantees
    for family in ORACLE_FAMILIES + [make_family(*spec) for spec in BENCHMARK_FAMILIES]:
        left = difference_systems(family)[:-1] != 0  # (n_params, m, N): the nonzero coefficients
        n_params = left.shape[0]
        has_pivot = left.any(axis=0)  # (m, N)
        # (m, N): each row's first nonzero column, n_params for a row zero on the left
        first = np.where(left, np.arange(n_params)[:, None, None], n_params).min(axis=0, initial=n_params)
        # strict echelon form: each nonzero row's first nonzero lies strictly right of the row above's
        assert (first[1:] > first[:-1])[has_pivot[1:]].all(), family.describe()
        # a pivotless row means a zero Toeplitz part: the whole left side is zero
        assert not left[:, :, ~has_pivot.all(axis=0)].any(), family.describe()


# systems of 3 rows over 3 parameters, each row [coefficients..., rhs] and taken mod q, on which the echelon
# pre-test of _solution_dims must not skip every step
FALL_THROUGH_SYSTEMS = [
    [[1, 2, 0, 1], [1, 0, 1, 0], [0, 0, 0, 0]],  # row 1 starts in row 0's pivot column
    [[0, 1, 1, 1], [1, 1, 0, 2], [0, 0, 1, 1]],  # row 1 starts left of it and is nonzero in it
    [[0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 0, 0]],  # row 1 starts left of it but is zero in it: nothing to clear
    [[1, 1, 0, 0], [1, 0, 1, 1], [0, 1, 1, 1]],  # clearing row 1 moves its first nonzero onto row 2's
    [[1, 1, 0, 1], [2, 2, 0, 2], [1, 1, 0, 0]],  # dependent rows, the last one inconsistent
    [[0, 0, 0, 0], [1, 2, 0, 1], [0, 0, 1, 0]],  # a pivotless row above nonzero ones
    [[0, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 0]],  # the same, inconsistent
    [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 2]],  # strict echelon form, beside them in one stack
]


@pytest.mark.parametrize("q", SUPPORTED_PRIMES)
def test_row_reduction_falls_through_the_echelon_pretest(q):
    systems = np.array(FALL_THROUGH_SYSTEMS) % q  # (N, rows, n_params + 1)
    expected = [hashing_oracle.solution_count_mod_prime(s[:, :-1].tolist(), s[:, -1].tolist(), q, 3) for s in systems]
    # each system alone, so a stack whose every multiplier is zero is among them, and all of them in one stack
    for batch in [[i] for i in range(len(systems))] + [list(range(len(systems)))]:
        stack = systems[batch].transpose(2, 1, 0).astype(hashing._KERNEL_DTYPE)
        for aug in (np.ascontiguousarray(stack), np.asfortranarray(stack)):  # the kernel must not assume C order
            dims = _solution_dims(aug, q)
            assert [q ** int(d) if d >= 0 else 0 for d in dims] == [expected[i] for i in batch], (q, batch)


@pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (5, 2)])
def test_identity_only_family_never_collides(q, k):
    # Toeplitz-identity with k = m has no Toeplitz block: every member is the identity map
    family = make_family("modified_toeplitz", q, k, k)
    report = collision_stats(family)
    assert (report.max_collision_prob, report.is_universal2, report.worst_input) == (0, True, 1)
    assert batched_counts(family, hashing_oracle.nonzero_differences(family)) == [0] * (family.domain_size - 1)


def test_zero_parameter_columns():
    family = make_family("modified_toeplitz", 2, 1, 1)
    assert hashing._toeplitz_block(family) == (0, 0)
    assert batched_counts(family, [[1]]) == [0]
    assert collision_stats(family) == hashing.CollisionReport(Fraction(0), True, 1)


@pytest.mark.parametrize("q", SUPPORTED_PRIMES)
def test_row_reduction_matches_scalar_solver(q):
    # difference systems always have rank 0 or m; random low-rank systems reach every rank
    rng = np.random.default_rng(q)
    for n_rows in range(1, 6):
        for n_params in range(0, 8):
            # 64 systems of rank at most rank[s], half with a right-hand side in the column space
            rank = rng.integers(0, min(n_rows, n_params) + 1, size=64)
            left = rng.integers(0, q, size=(64, n_rows, 5)) * (np.arange(5) < rank[:, None, None])
            coeffs = np.einsum("sir,srp->sip", left, rng.integers(0, q, size=(64, 5, n_params))) % q
            solvable = coeffs @ rng.integers(0, q, n_params) % q
            rhs = np.where(rng.random(64)[:, None] < 0.5, solvable, rng.integers(0, q, (64, n_rows)))
            stack = np.concatenate([coeffs, rhs[:, :, None]], axis=2).transpose(2, 1, 0)
            dims = _solution_dims(np.ascontiguousarray(stack, dtype=hashing._KERNEL_DTYPE), q)
            expected = [
                hashing_oracle.solution_count_mod_prime(c.tolist(), r.tolist(), q, n_params)
                for c, r in zip(coeffs, rhs)
            ]
            assert [q ** int(d) if d >= 0 else 0 for d in dims] == expected, (n_rows, n_params)


def structured_system(rng, q, n_rows, n_params, mode):
    """Coefficients and rhs whose leading rows are zero or dependent, as ``mode`` says; half with a perturbed rhs."""
    coeffs = rng.integers(0, q, size=(n_rows, n_params))
    lead = int(rng.integers(1, n_rows + 1))
    if mode == "zero":
        coeffs[:] = 0
    elif mode == "zero_lead":
        coeffs[:lead] = 0
    elif mode == "dependent_lead":
        for j in range(1, lead):  # each leading row a combination of the rows above it
            coeffs[j] = rng.integers(0, q, j) @ coeffs[:j] % q
    rhs = coeffs @ rng.integers(0, q, n_params) % q
    if rng.random() < 0.5:  # inconsistent when the perturbed row lies in the span of the others
        row = rng.integers(n_rows)
        rhs[row] = (rhs[row] + rng.integers(1, q)) % q
    return coeffs, rhs


@pytest.mark.parametrize("q", SUPPORTED_PRIMES)
def test_row_reduction_matches_scalar_solver_at_benchmark_shapes(q):
    # up to the 16 parameters and 4 rows of toeplitz:q=2,k=13,m=4, and one beyond each
    rng = np.random.default_rng(100 + q)
    modes = ("zero", "zero_lead", "dependent_lead", "random")
    for n_rows in range(1, 6):
        for n_params in (1, 4, 10, 12, 16, 17):
            systems = [structured_system(rng, q, n_rows, n_params, modes[i % 4]) for i in range(96)]
            coeffs = np.array([c for c, _ in systems])
            rhs = np.array([r for _, r in systems])
            stack = np.concatenate([coeffs, rhs[:, :, None]], axis=2).transpose(2, 1, 0)
            dims = _solution_dims(np.ascontiguousarray(stack, dtype=hashing._KERNEL_DTYPE), q)
            expected = [
                hashing_oracle.solution_count_mod_prime(c.tolist(), r.tolist(), q, n_params)
                for c, r in zip(coeffs, rhs)
            ]
            assert [q ** int(d) if d >= 0 else 0 for d in dims] == expected, (n_rows, n_params)
            # all-zero systems solved by everything, and inconsistent ones solved by nothing
            assert q**n_params in expected and 0 in expected, (n_rows, n_params)


@pytest.mark.parametrize("kind,q,k,m", BENCHMARK_FAMILIES)
def test_batched_counts_match_scalar_oracle_at_benchmark_scale(kind, q, k, m):
    # every nonzero difference, not only the worst one that collision_stats reports: a step skipped wrongly
    # could hide behind the maximum
    family = make_family(kind, q, k, m)
    dims = _solution_dims(difference_systems(family), q)
    counts = [q ** int(d) if d >= 0 else 0 for d in dims]
    assert counts == hashing_oracle.colliding_member_counts(family), family.describe()


@pytest.mark.parametrize("kind,q,k,m", BENCHMARK_FAMILIES)
def test_benchmark_families_are_universal2(kind, q, k, m):
    # each worst difference meets the 1 / q**m bound, first at difference 1
    assert collision_stats(make_family(kind, q, k, m)) == hashing.CollisionReport(Fraction(1, q**m), True, 1)


@pytest.mark.parametrize("q,k", [(2, 1), (2, 4), (3, 3), (5, 2)])
def test_full_toeplitz_square(q, k):
    # at m = k the band of a nonzero difference has full rank m, leaving k - 1 free parameters
    family = make_family("toeplitz", q, k, k)
    assert batched_counts(family, hashing_oracle.nonzero_differences(family)) == [q ** (k - 1)] * (family.domain_size - 1)
    assert collision_stats(family) == hashing.CollisionReport(Fraction(1, q**k), True, 1)


def test_kernel_dtype_holds_an_elimination_step():
    # entries stay below q and one step adds at most (q - 1)**2 to one; a larger prime must widen the dtype
    q = max(SUPPORTED_PRIMES)
    assert (q - 1) + (q - 1) ** 2 <= np.iinfo(hashing._KERNEL_DTYPE).max
    # the reduction mod q multiplies each such value by ceil(256 / q) in the wider dtype
    for q in SUPPORTED_PRIMES:
        assert ((q - 1) + (q - 1) ** 2) * -(-256 // q) <= np.iinfo(hashing._REDUCTION_DTYPE).max


@pytest.mark.parametrize("q", SUPPORTED_PRIMES)
def test_reduction_matches_remainder_over_its_whole_range(q):
    x = np.arange((q - 1) + (q - 1) ** 2 + 1, dtype=hashing._KERNEL_DTYPE)
    reduced = hashing._mod_q(x, q)
    assert reduced.dtype == hashing._KERNEL_DTYPE
    assert reduced.tolist() == [v % q for v in range(len(x))]


@pytest.mark.parametrize("q,k", [(2, 1), (2, 5), (2, 11), (3, 1), (3, 4), (3, 7), (5, 1), (5, 3), (5, 5)])
def test_digit_table_matches_digits(q, k):
    # collision_stats takes every column but the zero difference, also of tables whose size is no power of 2
    table = hashing._digit_table(q, k)
    assert table.dtype == hashing._KERNEL_DTYPE
    np.testing.assert_array_equal(table, hashing._digits(np.arange(q**k), q, k).T)


@st.composite
def system_batches(draw):
    """Systems over F_q of one shape, stacked as ``_solution_dims`` takes them, with their prime and parameter count."""
    q = draw(st.sampled_from((2, 3, 5)))
    n_rows = draw(st.integers(1, 5))
    n_params = draw(st.integers(0, 17))
    entries = st.lists(st.integers(0, q - 1), min_size=n_rows * (n_params + 1), max_size=n_rows * (n_params + 1))
    # each system's first `lead` coefficient columns are zero, so systems in one stack pivot in different columns
    batch = draw(st.lists(st.tuples(st.integers(0, n_params), entries), min_size=2, max_size=8))
    systems = np.array([e for _, e in batch], dtype=hashing._KERNEL_DTYPE).reshape(len(batch), n_rows, n_params + 1)
    for system, (lead, _) in zip(systems, batch):  # a row of each is [coefficients..., rhs]
        system[:, :lead] = 0
    return q, systems, n_params


@given(system_batches())
def test_row_reduction_matches_scalar_solver_on_drawn_batches(drawn):
    q, systems, n_params = drawn
    expected = [
        hashing_oracle.solution_count_mod_prime(system[:, :-1].tolist(), system[:, -1].tolist(), q, n_params)
        for system in systems
    ]
    stack = systems.transpose(2, 1, 0)
    for aug in (np.ascontiguousarray(stack), np.asfortranarray(stack)):  # the kernel must not assume C order
        dims = _solution_dims(aug, q)
        assert [q ** int(d) if d >= 0 else 0 for d in dims] == expected
