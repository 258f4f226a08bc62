from fractions import Fraction

import numpy as np
import pytest

from qpa.hashing import (
    collision_stats,
    enumerate_members,
    make_explicit_family,
    make_family,
    member_function,
    parse_family,
)
from qpa.hermitian import SizeCapError


def brute_force_collision_max(family):
    """All-pairs, all-members counting; the independent oracle."""
    tables = [m.function.table for m in enumerate_members(family)]
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
    members = list(enumerate_members(family))
    assert len(members) == 4
    assert [m.index for m in members] == [0, 1, 2, 3]
    # parameters (d0, d1) little-endian; row is [d1 d0] since T[0,j] = d[1-j]
    for idx, member in enumerate(members):
        d0, d1 = idx % 2, idx // 2
        row = np.array([d1, d0])
        for a in range(4):
            avec = np.array([a % 2, a // 2])
            assert member.function(a) == int(row @ avec) % 2, (idx, a)


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
    for member in enumerate_members(family):
        assert member.function.table == (0, 1, 2, 3)


def test_member_linearity():
    for family in (make_family("toeplitz", 3, 2, 2), make_family("modified_toeplitz", 3, 3, 2)):
        q, k = family.q, family.k
        for member in enumerate_members(family):
            f = member.function
            for a in range(family.domain_size):
                for b in range(family.domain_size):
                    da = np.array([(a // q**i) % q for i in range(k)])
                    db = np.array([(b // q**i) % q for i in range(k)])
                    c = int(np.sum((da + db) % q * q ** np.arange(k)))
                    fa = np.array([(f(a) // q**i) % q for i in range(family.m)])
                    fb = np.array([(f(b) // q**i) % q for i in range(family.m)])
                    fc = int(np.sum((fa + fb) % q * q ** np.arange(family.m)))
                    assert f(c) == fc, (family.kind, member.index, a, b)


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
    members = list(enumerate_members(family))
    assert len(members) == family.member_count
    assert members[0].index == 0
    assert members[-1].index == family.member_count - 1
    # distinct parameters give distinct matrices, hence distinct tables here
    tables = {m.function.table for m in members}
    assert len(tables) == family.member_count


def test_parse_family():
    fam = parse_family("toeplitz:q=2,k=4,m=2")
    assert (fam.kind, fam.q, fam.k, fam.m) == ("toeplitz", 2, 4, 2)
    with pytest.raises(ValueError):
        parse_family("toeplitz:q=2,k=4")
    with pytest.raises(ValueError):
        parse_family("bogus:q=2,k=4,m=2")
    with pytest.raises(ValueError):
        parse_family("toeplitz:q=two,k=4,m=2")


def test_collision_stats_domain_cap():
    with pytest.raises(SizeCapError):
        collision_stats(make_family("toeplitz", 2, 14, 1))
    with pytest.raises(SizeCapError):
        collision_stats(make_explicit_family([tuple([0] * 2048)], range_size=2))


def test_collision_count_probability_zero_difference():
    # inputs differing only in the identity-block digits never collide
    family = make_family("modified_toeplitz", 2, 2, 1)
    from qpa.hashing import _colliding_member_count
    import numpy as np

    assert _colliding_member_count(family, np.array([0, 1])) == 0
    assert _colliding_member_count(family, np.array([1, 0])) == 1
    assert _colliding_member_count(family, np.array([1, 1])) == 1
