"""50-digit reference for the conditional Renyi entropies of order ``1+s``.

Takes the float64 entries of a state exactly and evaluates

    H_{1+s}(A|E)    = -log( sum_a Tr (P(a) rho_a)^{1+s} (rho^E)^{-s} / T ) / s
    Hbar*_{1+s}(A|E) = -log( sum_a P(a)^{1+s} Tr rho_a X_a^s / T ) / s,
    X_a = (rho^E)^{-1/2} rho_a (rho^E)^{-1/2},

with matrix functions built from ``mpmath.eighe`` eigensystems, matrix
products and traces; nothing is shared with ``qpa.quantities``. ``T`` is
each trace's own value at ``s -> 0``, the mass of the state, so the
reference belongs to the state the float64 entries describe, normalised.
It covers states with a full-rank E marginal whose symbol states lie in
the support of their sandwiches (up to 1e-10 of mass); it raises otherwise.
"""

import mpmath

DPS = 50
SUPPORT_RTOL = mpmath.mpf("1e-12")


def _matrix(rows):
    return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in rows])


def _function(ev, q, f):
    """``q diag(f(ev)) q^dag``."""
    d = mpmath.diag([f(x) for x in ev])
    return q * d * q.transpose_conj()


def _trace(m):
    return mpmath.re(sum(m[i, i] for i in range(m.rows)))


def renyi_references(state, s_values):
    """``(H, Hbar*)``: two lists of mpf, one entry per order in ``s_values``."""
    with mpmath.workdps(DPS):
        probs = [mpmath.mpf(float(p)) for p in state.probs]
        rhos = [_matrix(rho) for rho in state.rhos]
        eve = sum((p * rho for p, rho in zip(probs, rhos)), mpmath.zeros(state.eve_dim))
        mu, v = mpmath.eighe(eve)
        if min(mu) <= SUPPORT_RTOL * max(mu):
            raise ValueError("the reference needs a full-rank E marginal")
        inv_sqrt = _function(mu, v, lambda x: x ** mpmath.mpf(-0.5))
        blocks = []  # per symbol: eigensystems of P(a) rho_a and of X_a
        for p, rho in zip(probs, rhos):
            if p == 0:
                continue
            lam, u = mpmath.eighe(p * rho)
            xi, w = mpmath.eighe(inv_sqrt * rho * inv_sqrt)
            blocks.append((p, rho, lam, u, xi, w))

        def h_trace(s):
            eve_pow = _function(mu, v, lambda x: x ** -s)
            return sum(
                _trace(_function(lam, u, lambda x: x ** (1 + s) if x > 0 else mpmath.mpf(0)) * eve_pow)
                for _, _, lam, u, _, _ in blocks
            )

        def bar_trace(s):
            total = mpmath.mpf(0)
            for p, rho, _, _, xi, w in blocks:
                cut = SUPPORT_RTOL * max(xi)
                total += p ** (1 + s) * _trace(rho * _function(xi, w, lambda x: x**s if x > cut else mpmath.mpf(0)))
            return total

        h_mass = sum(sum(x for x in lam if x > 0) for _, _, lam, _, _, _ in blocks)
        bar_mass = bar_trace(mpmath.mpf(0))
        state_mass = sum(p * _trace(rho) for p, rho, _, _, _, _ in blocks)
        if abs(bar_mass / state_mass - 1) > mpmath.mpf("1e-10"):
            raise ValueError("the reference needs every rho_a in the support of its sandwich")
        h_out, bar_out = [], []
        for s in s_values:
            s = mpmath.mpf(float(s))
            h_out.append(-mpmath.log(h_trace(s) / h_mass) / s)
            bar_out.append(-mpmath.log(bar_trace(s) / bar_mass) / s)
        return h_out, bar_out
