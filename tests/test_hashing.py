from fractions import Fraction

import numpy as np
import pytest

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
    """Member counts of the batched kernel for rows of base-q digits."""
    dims = _solution_dims(hashing._difference_systems(family, np.array(diffs)), family.q)
    return [family.q ** int(d) if d >= 0 else 0 for d in dims]


def test_collision_count_probability_zero_difference():
    # inputs differing only in the identity-block digits never collide
    family = make_family("modified_toeplitz", 2, 2, 1)
    assert batched_counts(family, [[0, 1], [1, 0], [1, 1]]) == [0, 1, 1]


def test_batched_counts_match_scalar_oracle(monkeypatch):
    # every matrix family of both kinds over F_2, F_3, F_5 with |A| <= 729; none reaches a cap
    families = [
        make_family(kind, q, k, m)
        for q, k_max in ((2, 9), (3, 6), (5, 4))
        for k in range(1, k_max + 1)
        for m in range(1, k + 1)
        for kind in ("toeplitz", "modified_toeplitz")
    ]
    expected = []
    for family in families:
        counts = hashing_oracle.colliding_member_counts(family)
        assert batched_counts(family, hashing_oracle.nonzero_differences(family)) == counts, family.describe()
        expected.append(hashing_oracle.collision_report(family, counts))
        assert collision_stats(family) == expected[-1], family.describe()
    # chunk boundaries must not change the worst count or the first difference attaining it
    monkeypatch.setattr(hashing, "_CHUNK", 37)
    assert [collision_stats(family) for family in families] == expected


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


@pytest.mark.parametrize("q,k", [(2, 1), (2, 4), (3, 3), (5, 2)])
def test_full_toeplitz_square(q, k):
    # at m = k the band of a nonzero difference has full rank m, leaving k - 1 free parameters
    family = make_family("toeplitz", q, k, k)
    assert batched_counts(family, hashing_oracle.nonzero_differences(family)) == [q ** (k - 1)] * (family.domain_size - 1)
    assert collision_stats(family) == hashing.CollisionReport(Fraction(1, q**k), True, 1)


def test_kernel_dtype_holds_an_elimination_step():
    # entries stay below q and one step forms at most (q - 1)**2 + q; a larger prime must widen the dtype
    q = max(SUPPORTED_PRIMES)
    assert (q - 1) ** 2 + q <= np.iinfo(hashing._KERNEL_DTYPE).max
