"""Per-member references for the stacked family pass of ``qpa.verification``.

``member_mutual_info_reference`` takes one member at a time: its table from
``member_function``, its hashed state from ``apply_function`` as a full
``CQState``, and its mutual information from that state's own
``StateDecomposition``; the oracle for ``grouped_member_mutual_info``,
which must equal it exactly.

``member_references`` gives the same four mutual informations to 50 digits.
It takes the float64 entries of a state exactly, as ``renyi_oracle`` does,
and evaluates

    I(A:E)     = sum_a P(a) (Tr rho_a log rho_a - Tr rho_a log rho^E)
    I'(A:E)    = I(A:E) + log |A| - H(A)
    Ibar(A:E)  = sum_a P(a) Tr rho_a log X_a,   X_a = (rho^E)^{-1/2} rho_a (rho^E)^{-1/2}
    Ibar'(A:E) = sum_a P(a) (log(|A| P(a)) Tr rho_a + Tr rho_a log X_a)

with ``mpmath.eighe`` eigensystems, matrix products and traces, the log of
``X_a`` on its support only; nothing is shared with ``qpa.quantities``. A
member's probabilities and blocks are the exact sums ``sum_{f(a) = b} P(a)``
and ``sum_{f(a) = b} P(a) rho_a`` over the state's entries. Hashing keeps
the E marginal, so one eigensystem of it serves the state and every member.
``log rho^E`` and ``(rho^E)^{-1/2}`` are taken on the support of ``rho^E``,
which holds every ``rho_a``, as ``renyi_oracle.support`` gives it.
"""

import functools

import mpmath

from qpa.cqstate import apply_function
from qpa.hashing import member_function
from renyi_oracle import DPS, SUPPORT_RTOL, _function, _matrix, support


def member_mutual_info_reference(state, family):
    """``mutual_info_variants`` of every hashed member state, built one by one, in index order."""
    return [
        apply_function(state, member_function(family, i)).decomposition.mutual_info_variants()
        for i in range(family.member_count)
    ]


def _trace_product(a, b):
    """``Re Tr(a b)`` without forming the product."""
    return mpmath.re(sum(a[i, j] * b[j, i] for i in range(a.rows) for j in range(a.cols)))


def _mutual_infos(blocks, log_eve, inv_sqrt):
    """``I``, ``I'``, ``Ibar`` and ``Ibar'`` of the state of ``blocks``, pairs ``(P(a), P(a) rho_a)``."""
    size = len(blocks)
    i_val = i_bar = i_bar_prime = entropy = mpmath.mpf(0)
    for p, block in blocks:
        if p == 0:
            continue
        rho = block / p
        lam = mpmath.eighe(rho, eigvals_only=True)
        xi, w = mpmath.eighe(inv_sqrt * rho * inv_sqrt)
        cut = SUPPORT_RTOL * max(xi)
        rho_w = rho * w
        weights = [mpmath.re(sum(mpmath.conj(w[i, j]) * rho_w[i, j] for i in range(w.rows))) for j in range(w.cols)]
        tr_log_xi = sum(c * mpmath.log(x) for c, x in zip(weights, xi) if x > cut)
        mass = sum(c for c, x in zip(weights, xi) if x > cut)
        tr_log_self = sum(x * mpmath.log(x) for x in lam if x > 0)
        i_val += p * (tr_log_self - _trace_product(rho, log_eve))
        i_bar += p * tr_log_xi
        i_bar_prime += p * (mpmath.log(size * p) * mass + tr_log_xi)
        entropy -= p * mpmath.log(p)
    i_prime = i_val + mpmath.log(size) - entropy
    return {"I": i_val, "I_prime": i_prime, "I_bar": i_bar, "I_bar_prime": i_bar_prime}


@functools.lru_cache(maxsize=1)  # the families of one state, evaluated in turn, share it
def _state_reference(state):
    """``(blocks, log_eve, inv_sqrt, parent)``: blocks as ``_mutual_infos`` takes them, and the state's references."""
    with mpmath.workdps(DPS):
        probs = [mpmath.mpf(float(p)) for p in state.probs]
        blocks = [(p, p * _matrix(rho)) for p, rho in zip(probs, state.rhos)]
        mu, v = support(sum((block for _, block in blocks), mpmath.zeros(state.eve_dim)))
        log_eve = _function(mu, v, mpmath.log)
        inv_sqrt = _function(mu, v, lambda x: x ** mpmath.mpf(-0.5))
        return blocks, log_eve, inv_sqrt, _mutual_infos(blocks, log_eve, inv_sqrt)


def member_references(state, family):
    """``(parent, members)``: the four mutual informations of ``state`` and of each hashed member, as dicts of mpf.

    ``members`` is in index order; members that share a table share one dict.
    """
    blocks, log_eve, inv_sqrt, parent = _state_reference(state)
    with mpmath.workdps(DPS):
        by_table, members = {}, []
        for index in range(family.member_count):
            table = member_function(family, index).table
            if table not in by_table:
                hashed = [[mpmath.mpf(0), mpmath.zeros(state.eve_dim)] for _ in range(family.range_size)]
                for (p, block), b in zip(blocks, table):
                    hashed[b][0] += p
                    hashed[b][1] += block
                by_table[table] = _mutual_infos(hashed, log_eve, inv_sqrt)
            members.append(by_table[table])
        return parent, members
