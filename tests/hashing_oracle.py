"""Scalar references for the matrix families of ``qpa.hashing``.

One pure-Python Gaussian elimination over F_q per input difference, with
no array code; the independent oracle for the batched row reduction in
``qpa.hashing``. ``member_table`` builds one member's matrix from the
textbook definition and applies it to every input, the oracle for
``member_tables``.
"""

from fractions import Fraction

from qpa.hashing import KIND_MODIFIED, CollisionReport, _toeplitz_block


def _base_q(x, q, width):
    """Little-endian base-q digits of ``x``."""
    return [(x // q**i) % q for i in range(width)]


def member_table(family, index):
    """Output index of every input under member ``index``: its m x k matrix applied to the input's digits.

    The matrix is the m x width Toeplitz block ``T[i][c] = x[i - c + width - 1]`` over the base-q digits
    ``x`` of the index, followed for ``modified_toeplitz`` by the m x m identity.
    """
    q, k, m = family.q, family.k, family.m
    width = k - m if family.kind == KIND_MODIFIED else k
    x = _base_q(index, q, m + width - 1)
    matrix = [[x[i - c + width - 1] for c in range(width)] for i in range(m)]
    if family.kind == KIND_MODIFIED:
        matrix = [row + [int(i == j) for j in range(m)] for i, row in enumerate(matrix)]
    table = []
    for a in range(family.domain_size):
        digits = _base_q(a, q, k)
        out = [sum(row[c] * digits[c] for c in range(k)) % q for row in matrix]
        table.append(sum(d * q**i for i, d in enumerate(out)))
    return table


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
    return [_base_q(x, family.q, family.k) for x in range(1, family.domain_size)]


def colliding_member_counts(family):
    """Count for every nonzero difference, in difference-index order."""
    return [colliding_member_count(family, diff) for diff in nonzero_differences(family)]


def collision_report(family, counts):
    """The report that ``counts`` (in difference-index order) imply: the first worst difference wins ties."""
    worst = max(counts)
    prob = Fraction(worst, family.member_count)
    return CollisionReport(prob, prob <= Fraction(1, family.range_size), counts.index(worst) + 1)
