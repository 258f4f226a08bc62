"""Scalar reference for the exact collision counting of the matrix families.

One pure-Python Gaussian elimination over F_q per input difference, with
no array code; the independent oracle for the batched row reduction in
``qpa.hashing``.
"""

from fractions import Fraction

from qpa.hashing import KIND_MODIFIED, CollisionReport, _toeplitz_block


def solution_count_mod_prime(rows, rhs, q, n_params):
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


def difference_system(family, diff):
    """Coefficient rows and rhs, over F_q, of the members' parameters sending ``diff`` (base-q digits) to zero.

    The member matrix is linear in its parameter vector, so those members
    are the solutions of one small linear system.
    """
    q, m = family.q, family.m
    width, n_params = _toeplitz_block(family)
    # (X_x diff1)_i = sum_p x_p diff[i + width - 1 - p]; the identity block adds diff2
    rows = [
        [int(diff[i + width - 1 - p]) if 0 <= i + width - 1 - p < width else 0 for p in range(n_params)]
        for i in range(m)
    ]
    if family.kind == KIND_MODIFIED:
        rhs = [(-int(diff[width + i])) % q for i in range(m)]
    else:
        rhs = [0] * m
    return rows, rhs


def colliding_member_count(family, diff):
    """Members sending the nonzero input difference ``diff`` (base-q digits) to zero."""
    rows, rhs = difference_system(family, diff)
    return solution_count_mod_prime(rows, rhs, family.q, _toeplitz_block(family)[1])


def nonzero_differences(family):
    """Base-q digits, least significant first, of the difference indices 1 .. |A| - 1."""
    q, k = family.q, family.k
    return [[(x // q**i) % q for i in range(k)] for x in range(1, family.domain_size)]


def colliding_member_counts(family):
    """Count for every nonzero difference, in difference-index order."""
    return [colliding_member_count(family, diff) for diff in nonzero_differences(family)]


def collision_report(family, counts):
    """The report that ``counts`` (in difference-index order) imply: the first worst difference wins ties."""
    worst = max(counts)
    prob = Fraction(worst, family.member_count)
    return CollisionReport(prob, prob <= Fraction(1, family.range_size), counts.index(worst) + 1)
