"""50-digit reference for the conditional Renyi entropies of order ``1+s``.

Takes the float64 entries of a state exactly and evaluates

    H_{1+s}(A|E)    = -log( sum_a Tr (P(a) rho_a)^{1+s} (rho^E)^{-s} / T ) / s
    Hbar*_{1+s}(A|E) = -log( sum_a P(a)^{1+s} Tr rho_a X_a^s / T ) / s,
    X_a = (rho^E)^{-1/2} rho_a (rho^E)^{-1/2},

with matrix functions built from ``mpmath.eighe`` eigensystems, matrix
products and traces; nothing is shared with ``qpa.quantities``. ``T`` is
each trace's own value at ``s -> 0``, the mass of the state, so the
reference belongs to the state the float64 entries describe, normalised.
``psi_reference`` exposes the log-trace ``psi(s) = -s H_{1+s}(A|E)`` as an
mpmath callable, from which the tests take the exponents' arguments, and
``phi_reference`` does the same for the smoothing-method functional
``phi(t)``. Every ``rho_a`` lies in the support of ``rho^E``, so the Renyi
references form ``(rho^E)^{-s}`` and the sandwich on that support only: the
eigenvalues of ``rho^E`` above ``SUPPORT_RTOL`` of the largest (``support``,
which ``member_oracle`` shares). They cover states whose symbol states lie in
the support of their sandwiches (up to 1e-10 of mass), and raise otherwise.
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


def support(eve):
    """``(mu, v)``: the eigenvalues of ``eve`` above ``SUPPORT_RTOL`` of the largest, and their eigenvectors as columns.

    ``_function(mu, v, f)`` is then ``f`` of ``eve`` on its support and zero off it.
    """
    mu, v = mpmath.eighe(eve)
    keep = [j for j, x in enumerate(mu) if x > SUPPORT_RTOL * max(mu)]
    return [mu[j] for j in keep], mpmath.matrix([[v[i, j] for j in keep] for i in range(v.rows)])


def _traces(state):
    """``(h_trace, h_mass, bar_trace, bar_mass)``: the two traces as callables of s, and their masses."""
    probs = [mpmath.mpf(float(p)) for p in state.probs]
    rhos = [_matrix(rho) for rho in state.rhos]
    mu, v = support(sum((p * rho for p, rho in zip(probs, rhos)), mpmath.zeros(state.eve_dim)))
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

    h_mass = h_trace(mpmath.mpf(0))  # the mass on the support of rho^E
    bar_mass = bar_trace(mpmath.mpf(0))
    state_mass = sum(p * _trace(rho) for p, rho, _, _, _, _ in blocks)
    if abs(bar_mass / state_mass - 1) > mpmath.mpf("1e-10"):
        raise ValueError("the reference needs every rho_a in the support of its sandwich")
    return h_trace, h_mass, bar_trace, bar_mass


def renyi_references(state, s_values):
    """``(H, Hbar*)``: two lists of mpf, one entry per order in ``s_values``."""
    with mpmath.workdps(DPS):
        h_trace, h_mass, bar_trace, bar_mass = _traces(state)
        h_out, bar_out = [], []
        for s in s_values:
            s = mpmath.mpf(float(s))
            h_out.append(-mpmath.log(h_trace(s) / h_mass) / s)
            bar_out.append(-mpmath.log(bar_trace(s) / bar_mass) / s)
        return h_out, bar_out


def psi_reference(state):
    """``psi(s) = log(Tr sum_a (P(a) rho_a)^{1+s} (rho^E)^{-s} / T) = -s H_{1+s}(A|E)``.

    The eigensystems are taken at ``DPS`` digits; the callable evaluates at
    the working precision of its caller, so ``mpmath.diff`` may raise it.
    """
    with mpmath.workdps(DPS):
        h_trace, h_mass, _, _ = _traces(state)
    return lambda s: mpmath.log(h_trace(s) / h_mass)


def phi_reference(state):
    """``phi(t) = log Tr (sum_a (P(a) rho_a)^{1/(1-t)})^{1-t}``, unnormalised.

    Built on ``mpmath.eighe`` eigensystems of each ``P(a) rho_a``, taken at
    ``DPS`` digits, and of the inner operator, taken at the working precision
    of the caller, so ``mpmath.diff`` may raise it. Any E marginal will do.
    """
    with mpmath.workdps(DPS):
        pairs = zip(state.probs, state.rhos)
        blocks = [mpmath.eighe(mpmath.mpf(float(p)) * _matrix(rho)) for p, rho in pairs if p > 0]

    def phi(t):
        alpha = 1 / (1 - t)
        inner = mpmath.zeros(state.eve_dim)
        for lam, u in blocks:
            inner += _function(lam, u, lambda x: x**alpha if x > 0 else mpmath.mpf(0))
        eta, _ = mpmath.eighe(inner)
        return mpmath.log(sum(x ** (1 - t) for x in eta if x > 0))

    return phi
