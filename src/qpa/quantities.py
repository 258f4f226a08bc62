"""Information quantities of a classical-quantum state, in nats.

Every quantity decomposes over the block structure of the joint operator
(one stacked eigenproblem over the symbol blocks plus one for the E
marginal), which is the default evaluation path. The ``*_joint`` variants
evaluate the same formulas on the full joint matrix, a plain array, with the
spectral functions of ``qpa.hermitian``; they are kept as cross-check oracles
independent of ``StateDecomposition``.

Conventions: natural logarithms throughout; functions of rank-deficient
operators act on the support only (pseudo-inverse / pseudo-log); the Renyi
order parameter ``s`` means order ``1+s``, ``s = 0`` denotes the von
Neumann limit, and a subnormal ``s`` (below ``S_MIN``) is rejected.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .cqstate import CQState, eve_marginal, eve_marginals, joint_density
from .hermitian import (
    SUPPORT_RTOL,
    cluster_ranges,
    eig_hermitian,
    eigh_batch,
    hermitian_entries,
    matrix_log,
    matrix_power,
    tensor,
)

S_MAX = 4.0

# smallest positive order: below it orders are subnormal and lose their precision
S_MIN = sys.float_info.min

# largest phi argument evaluated: beta = 1/(1-t) = 16; beyond this, double
# precision cannot carry the small inner eigenvalues back through the
# 1/beta root without silent truncation
PHI_T_MAX = 0.9375

# entries of each state's memo of order evaluations (StateDecomposition.memo):
# those of a sweep over many rates are mostly distinct interior roots, which
# an unbounded memo would all keep
MEMO_ENTRIES = 1024

# map from report keys to conventional symbols, used by the CLI
QUANTITY_SYMBOLS = {
    "H_AE": "H(A,E)",
    "H_E": "H(E)",
    "H_A": "H(A)",
    "H_cond": "H(A|E)",
    "H_cond_bar": "Hbar(A|E)",
    "H_min": "H_min(A|E)",
    "I": "I(A:E)",
    "I_prime": "I'(A:E)",
    "I_bar": "Ibar(A:E)",
    "I_bar_prime": "Ibar'(A:E)",
    "d1": "d1(A:E)",
    "d1_prime": "d1'(A:E)",
}


def _log_positive(values: np.ndarray) -> np.ndarray:
    """Elementwise log, with 0 in place of the entries that are not positive."""
    return np.log(np.where(values > 0.0, values, 1.0))


def _entropy_of(values: np.ndarray) -> float:
    vals = values[values > 0.0]
    return 0.0 - math.fsum(v * math.log(v) for v in vals.tolist())


def _check_order(s, *, allow_zero: bool) -> np.ndarray:
    """The order parameters as a float array, each checked to be 0 or to lie in ``[S_MIN, S_MAX]``."""
    s = np.asarray(s, dtype=float)
    bad = ~((s >= 0.0) & (s <= S_MAX))
    if bad.any():
        raise ValueError(f"Renyi order parameter s={float(s[bad][0])} outside [0, {S_MAX}]")
    tiny = (s > 0.0) & (s < S_MIN)
    if tiny.any():
        raise ValueError(f"Renyi order parameter s={float(s[tiny][0])} is subnormal, below {S_MIN}")
    if not allow_zero and (s == 0.0).any():
        raise ValueError("s = 0 is the von Neumann limit; call cond_entropy_bar instead")
    return s


def _check_order_keys(orders) -> None:
    """Reject two distinct orders that print as one ``f"{s:g}"`` key, under which one value would hide the other."""
    first = {}
    for s in orders:
        if first.setdefault(key := f"{s:g}", s) != s:
            raise ValueError(f"orders {first[key]!r} and {s!r} share the printed key {key!r}")


def _normalised_terms(offs: np.ndarray, slopes: np.ndarray, log_mass: float = 0.0):
    """``(w, g, log_mass)`` with ``w_k = exp(off_k) / sum_j exp(off_j)``, for ``_renyi_from_terms``."""
    weights = np.exp(offs - offs.max())
    return weights / weights.sum(), slopes, log_mass


def _renyi_from_terms(terms, s: np.ndarray) -> np.ndarray:
    """``-log(sum_k exp(off_k + s g_k)) / s`` at each positive order in ``s``.

    Evaluated as ``-(log_mass + log1p(sum_k w_k expm1(s g_k))) / s`` over the
    cached ``_normalised_terms``, which stays accurate as ``s -> 0``: the sum
    is ``O(s)`` and holds no rounding error of ``sum_k exp(off_k)``, which
    ``-log(...) / s`` would amplify by ``1/s``. That sum is the mass of the
    state, one up to rounding (within 2.6e-15 over the states that
    ``verify --suite full`` decomposes), so taking it as exactly one changes
    values only at rounding level; a genuine shortfall enters as ``log_mass``.
    """
    weights, slopes, log_mass = terms
    return -(log_mass + np.log1p(np.expm1(np.multiply.outer(s, slopes)) @ weights)) / s


def _moments_from_terms(terms, s: float) -> tuple[float, float]:
    """``(psi, psi')`` at one order s of ``psi(s) = log(sum_k exp(off_k + s g_k))``.

    ``psi = -s H_{1+s}`` over the terms of ``_renyi_from_terms``, evaluated
    the same way; ``psi'`` is the mean of the slopes ``g_k`` under the tilted
    weights ``w_k exp(s g_k) / exp(psi)``, and ``psi''`` their variance, so
    ``psi`` is convex.
    """
    weights, slopes, log_mass = terms
    grow = np.expm1(s * slopes)
    total = float(grow @ weights)
    tilted = weights * (1.0 + grow) / (1.0 + total)
    return log_mass + math.log1p(total), float(tilted @ slopes)


def _memoised(method):
    """``method(self, order)``, kept in ``self.memo`` under ``(method name, float(order))``.

    A miss runs ``method``, which validates the order, and stores only a
    returned value, so a hit always comes from an order that passed. The key
    is taken through ``np.asarray``, as validation reads the order, so an
    ``int``, a numpy scalar or a 0-d array of the same value share one key.
    The memo is a dict in order of use: a hit moves its key to the end, and
    past ``MEMO_ENTRIES`` entries the first, least recently used key goes.
    """
    name = method.__name__

    @functools.wraps(method)
    def memoised(self, order):
        key = (name, float(np.asarray(order, dtype=float)))
        value = self.memo.pop(key, None)
        if value is None:
            value = method(self, order)
        self.memo[key] = value  # now the most recently used
        if len(self.memo) > MEMO_ENTRIES:
            del self.memo[next(iter(self.memo))]
        return value

    return memoised


class DecompositionStack:
    """The spectral arrays of :class:`StateDecomposition` for a stack of states.

    ``probs`` is ``(n, |A|)``, one state per row, ``rhos`` the matching
    ``(n, |A|, d, d)`` eve states and ``lam``, ``basis`` their ascending
    eigensystems from validation. Every array below has the row axis first,
    then the axes of the one-state attribute of the same name; each row is
    computed as if alone, so a one-row stack is a state's decomposition.
    """

    def __init__(self, probs: np.ndarray, rhos: np.ndarray, lam: np.ndarray, basis: np.ndarray):
        self.probs = probs
        self.eve_mat = eve_marginals(probs, rhos)
        eve_values, vmat = eigh_batch(self.eve_mat)
        self.eve_values = eve_values[:, ::-1].copy()  # descending
        self.eve_vectors = vmat = vmat[:, :, ::-1].copy()
        mu = np.maximum(self.eve_values, 0.0)
        supp = mu > SUPPORT_RTOL * mu[:, :1]
        self.mu = mu
        self.eve_support = supp
        inv_sqrt = np.where(supp, np.where(supp, mu, 1.0) ** -0.5, 0.0)
        b = (vmat * inv_sqrt[:, None, :]) @ np.conj(vmat).swapaxes(-1, -2)  # (rho^E)^{-1/2} on the support

        x = b[:, None] @ rhos @ b[:, None]
        xi, w = eigh_batch((x + np.conj(np.swapaxes(x, -1, -2))) / 2)
        xi = np.maximum(xi, 0.0)
        # per state and symbol a, row [., a] of each array:
        self.lam = np.maximum(lam, 0.0)  # eigenvalues of rho_a
        self.basis = basis  # eigenvectors of rho_a, columnwise
        self.overlap = np.abs(np.conj(np.swapaxes(basis, -1, -2)) @ vmat[:, None]) ** 2  # |<u_i^a | v_j>|^2
        self.xi = xi  # eigenvalues of the sandwiched block
        # <w_j| rho_a |w_j>
        self.xi_weight = np.maximum(np.real(np.einsum("...aji,...ajk,...aki->...ai", w.conj(), rhos, w)), 0.0)
        self.xi_support = xi > SUPPORT_RTOL * xi[..., -1:]

    def mutual_info_variants(self) -> list[dict[str, float]]:
        """:meth:`StateDecomposition.mutual_info_variants` of every row.

        Masked array expressions over all rows, then one ``math.fsum`` per
        row and quantity over the symbols of positive probability.
        """
        probs = self.probs
        n_sym = probs.shape[1]
        pos = probs > 0.0
        supp = self.eve_support
        # (1, d) @ (d, d) @ (d, 1) products per symbol, which round as per-row dots
        lam_ov = self.lam[..., None, :] @ self.overlap
        outside = np.sum(np.where(supp[:, None, None, :], 0.0, lam_ov), axis=-1)[..., 0]
        leaks = np.any(pos & (outside > 1e-10), axis=1)  # weight outside supp(rho^E)
        tr_log_self = np.sum(self.lam * _log_positive(self.lam), axis=-1)
        log_mu = np.where(supp, _log_positive(self.mu), 0.0)
        tr_log_eve = (lam_ov @ log_mu[:, None, :, None])[..., 0, 0]
        w = np.where(self.xi_support, self.xi_weight, 0.0)
        tr_log_xi = np.sum(w * _log_positive(self.xi), axis=-1)
        # math.log, not np.log, which rounds some arguments differently
        log_ap = np.array([[math.log(n_sym * x) if x > 0.0 else 0.0 for x in row] for row in probs.tolist()])
        terms = (
            probs * (tr_log_self - tr_log_eve),
            probs * tr_log_xi,
            probs * (log_ap * np.sum(w, axis=-1) + tr_log_xi),
        )
        out = []
        for r, keep in enumerate(pos):
            if leaks[r]:
                out.append(dict.fromkeys(("I", "I_prime", "I_bar", "I_bar_prime"), math.inf))
                continue
            i_val, i_bar, i_bar_prime = (math.fsum(t[r][keep].tolist()) for t in terms)
            i_prime = i_val + math.log(n_sym) - _entropy_of(probs[r])
            out.append({"I": i_val, "I_prime": i_prime, "I_bar": i_bar, "I_bar_prime": i_bar_prime})
        return out


class StateDecomposition:
    """Spectral data of one state, shared by every blockwise formula.

    Holds the eigensystems of each ``rho_a`` and of the E marginal, the
    squared overlaps between them, and the eigensystem of each sandwiched
    block ``(rho^E)^{-1/2} rho_a (rho^E)^{-1/2}``, all as arrays with one
    row per symbol: the one-row case of :class:`DecompositionStack`. Each
    state builds one on first use (``CQState.decomposition``), and every
    quantity, check and exponent on the state reads it.

    ``memo`` is the state's memo of orders, a least-recently-used dict of at
    most ``MEMO_ENTRIES`` entries. The scalar order evaluations
    ``renyi_cond``, ``renyi_cond_bar_star``, ``renyi_cond_moments``, ``phi``
    and ``phi_and_slope`` keep their values in it, keyed by method and order,
    so the families and rates evaluated on one state compute each order once.
    """

    def __init__(self, state: CQState):
        self.rhos = state.rhos  # not the state itself, which holds this decomposition
        self.alphabet_size = state.alphabet_size
        self.probs = state.probs
        lam, u = state.eve_eigh  # from the state's validation
        self._stack = rows = DecompositionStack(state.probs[None], state.rhos[None], lam[None], u[None])
        for name in ("eve_mat", "eve_vectors", "mu", "eve_support", "lam", "overlap", "xi", "xi_weight", "xi_support"):
            setattr(self, name, getattr(rows, name)[0])
        self._basis = rows.basis[0]
        self.eve_clusters = cluster_ranges(rows.eve_values[0])
        self.v_count = len(self.eve_clusters)
        self.memo = {}

    # positive terms exp(off + s * g) of the two Renyi traces, flattened in
    # (a, i, j) order and normalised by _normalised_terms
    @functools.cached_property
    def _renyi_terms(self):
        # term: O_ij * p^{1+s} lam_i^{1+s} mu_j^{-s}
        mask = (
            (self.probs[:, None, None] > 0.0)
            & (self.lam[:, :, None] > 0.0)
            & self.eve_support
            & (self.overlap > 0.0)
        )
        base = (_log_positive(self.probs)[:, None] + _log_positive(self.lam))[:, :, None]
        offs = _log_positive(self.overlap) + base
        slopes = base - _log_positive(self.mu)
        return _normalised_terms(offs[mask], slopes[mask])

    @functools.cached_property
    def _bar_terms(self):
        # term: w_j * p^{1+s} xi_j^s over the support of each sandwiched block;
        # the weight outside it is the shortfall of the trace at s -> 0, kept
        # when it exceeds 1e-10, the out-of-support rule of mutual_info_variants
        log_p = _log_positive(self.probs)[:, None]
        mass = self.probs[:, None] * self.xi_weight
        mask = (self.probs[:, None] > 0.0) & self.xi_support & (self.xi_weight > 0.0)
        offs = _log_positive(self.xi_weight) + log_p
        slopes = log_p + _log_positive(self.xi)
        shortfall = float(mass[~self.xi_support].sum() / mass.sum())
        log_mass = math.log1p(-shortfall) if shortfall > 1e-10 else 0.0
        return _normalised_terms(offs[mask], slopes[mask], log_mass)

    # log of P(a) lam_i^a, shifted by its maximum, for the phi functional
    @functools.cached_property
    def _phi_terms(self):
        mask = (self.lam > 0.0) & (self.probs[:, None] > 0.0)
        base = np.where(mask, _log_positive(self.probs)[:, None] + _log_positive(self.lam), -np.inf)
        top = float(np.max(base))
        return top, np.where(mask, base - top, -1e30), self._basis.conj()

    # -- von Neumann layer ------------------------------------------------

    def joint_entropy(self) -> float:
        # the fsum of per-symbol entropies: one fsum over every term rounds differently
        return math.fsum(map(_entropy_of, self.probs[:, None] * self.lam))

    def eve_entropy(self) -> float:
        return _entropy_of(self.mu)

    def classical_entropy(self) -> float:
        return _entropy_of(self.probs)

    def cond_entropy(self) -> float:
        return self.joint_entropy() - self.eve_entropy()

    def cond_entropy_bar(self) -> float:
        log_pxi = np.where(self.xi_support, _log_positive(self.probs[:, None] * self.xi), 0.0)
        return -math.fsum((self.probs * np.sum(self.xi_weight * log_pxi, axis=1)).tolist())

    # -- Renyi layer -------------------------------------------------------

    @_memoised
    def renyi_cond(self, s: float) -> float:
        return float(self.renyi_cond_grid([s])[0])

    @_memoised
    def renyi_cond_bar_star(self, s: float) -> float:
        return float(self.renyi_cond_bar_star_grid([s])[0])

    def renyi_cond_grid(self, s_values) -> np.ndarray:
        """``H_{1+s}(A|E)`` over an array of orders in ``[0, S_MAX]``; s = 0
        entries take the von Neumann limit."""
        s = _check_order(s_values, allow_zero=True)
        pos = s > 0.0
        out = _renyi_from_terms(self._renyi_terms, np.where(pos, s, 1.0))
        if not pos.all():
            out = np.where(pos, out, self.cond_entropy())
        return out

    @_memoised
    def renyi_cond_moments(self, s: float) -> tuple[float, float]:
        """``(psi, psi')`` of the convex ``psi(s) = -s H_{1+s}(A|E)`` at one order s."""
        return _moments_from_terms(self._renyi_terms, float(_check_order(s, allow_zero=True)))

    def renyi_cond_bar_star_grid(self, s_values) -> np.ndarray:
        """``Hbar*_{1+s}(A|E)`` over an array of orders in ``(0, S_MAX]``."""
        return _renyi_from_terms(self._bar_terms, _check_order(s_values, allow_zero=False))

    def min_entropy(self) -> float:
        return -math.log(float(np.max(self.probs * self.xi[:, -1])))

    # -- mutual information layer -------------------------------------------

    def mutual_info_variants(self) -> dict[str, float]:
        return self._stack.mutual_info_variants()[0]

    # -- distances and the phi functional ------------------------------------

    def trace_distances(self) -> dict[str, float]:
        n = self.alphabet_size
        p = self.probs[:, None, None]
        # rows 0..n-1: P(a) (rho_a - rho^E); rows n..2n-1: P(a) rho_a - rho^E / |A|
        diffs = np.concatenate([p * (self.rhos - self.eve_mat), p * self.rhos - self.eve_mat / n])
        norms = np.sum(np.abs(np.linalg.eigvalsh(diffs)), axis=1).tolist()
        return {"d1": math.fsum(norms[:n]), "d1_prime": math.fsum(norms[n:])}

    @_memoised
    def phi(self, t: float) -> float:
        return float(self.phi_grid([t])[0])

    def phi_grid(self, t_values) -> np.ndarray:
        """Vectorized phi over an array of parameters in ``[0, PHI_T_MAX]``.

        Builds the inner operator ``sum_a (P(a) rho_a)^{1/(1-t)}`` for every
        t in one batched eigenproblem. The top joint eigenvalue is factored
        out first so the inner powers cannot overflow. Beyond PHI_T_MAX the
        final ``1/beta`` root would re-amplify eigenvalues that underflowed,
        so larger arguments are rejected rather than computed wrong.
        """
        t, top, (y,) = self._phi_inner(t_values, (0,))
        eta = self._phi_spectrum(np.linalg.eigvalsh(y))  # (T, d)
        return top + np.log(np.sum(eta ** (1.0 - t)[:, None], axis=1))

    @_memoised
    def phi_and_slope(self, t: float) -> tuple[float, float]:
        """``(phi(t), phi'(t))`` at one t in ``[0, PHI_T_MAX]``, from one eigenproblem.

        ``d Tr f(X) = Tr f'(X) dX`` on ``X = sum_a X_a``, ``X_a = (P(a) rho_a)^alpha``,
        ``alpha = 1/(1-t)``, gives ``phi' = Tr X^{-t} (sum_a X_a log X_a - X log X) / Tr X^{1-t}``,
        which holds as well for the scaled ``Y = X / exp(alpha top)`` of ``phi_grid``;
        ``Y^{-t}`` acts on ``Y``'s support.
        """
        t, top, (y, y_log_y) = self._phi_inner(float(t), (0, 1))
        eta, v = np.linalg.eigh(y)
        eta = self._phi_spectrum(eta)
        trace = float(np.sum(eta ** (1.0 - t)))
        e = eta[eta > 0.0]
        gap = np.real(np.einsum("ji,jk,ki->i", v.conj(), y_log_y, v))[eta > 0.0] - e * np.log(e)
        return top + math.log(trace), float(np.sum(gap * e**-t)) / trace

    def _phi_inner(self, t_values, log_powers):
        """``(t, top, ops)`` for t checked to lie in ``[0, PHI_T_MAX]``: ``ops[k]`` holds
        ``sum_a Y_a (log Y_a)^k`` per t for each k in ``log_powers``, built in the
        eigenbasis of each ``rho_a``, where ``Y_a = (P(a) rho_a / exp(top))^alpha`` and
        ``alpha = 1/(1-t)``, so that ``sum_a Y_a = X(t) / exp(alpha top)``."""
        t = np.asarray(t_values, dtype=float)
        if not np.all((t >= 0.0) & (t <= PHI_T_MAX)):
            raise ValueError(f"phi is computable for t in [0, {PHI_T_MAX}], got {t_values}")
        top, shifted, u_conj = self._phi_terms
        log_w = (1.0 / (1.0 - t))[..., None, None] * shifted
        weights = np.stack([log_w**k * np.exp(log_w) for k in log_powers])
        inner = np.einsum("aij,...aj,akj->...ik", self._basis, weights, u_conj)
        return t, top, (inner + np.conj(np.swapaxes(inner, -1, -2))) / 2

    def _phi_spectrum(self, eta: np.ndarray) -> np.ndarray:
        # X(t) has the support of rho^E, so its d - rank(rho^E) smallest eigenvalues
        # are zeros, which rounding would turn into eps^(1-t) terms of phi
        eta = np.maximum(eta, 0.0)
        eta[..., : np.count_nonzero(~self.eve_support)] = 0.0
        return eta


# -- public operation surface ------------------------------------------------


def von_neumann_entropies(state: CQState) -> dict[str, float]:
    """Joint, E-side, and classical entropies ``{H_AE, H_E, H_A}``."""
    dec = state.decomposition
    return {"H_AE": dec.joint_entropy(), "H_E": dec.eve_entropy(), "H_A": dec.classical_entropy()}


def cond_entropy(state: CQState) -> float:
    """Conditional entropy ``H(A|E) = H(A,E) - H(E)``."""
    return state.decomposition.cond_entropy()


def cond_entropy_bar(state: CQState) -> float:
    """Sandwiched conditional entropy ``Hbar(A|E)``, the s -> 0 limit of Hbar*."""
    return state.decomposition.cond_entropy_bar()


def renyi_cond(state: CQState, s: float) -> float:
    """Conditional Renyi entropy of order ``1+s``; ``s = 0`` gives ``H(A|E)``."""
    return state.decomposition.renyi_cond(s)


def renyi_cond_bar_star(state: CQState, s: float) -> float:
    """Sandwiched-type conditional Renyi entropy ``Hbar*_{1+s}(A|E)``."""
    return state.decomposition.renyi_cond_bar_star(s)


def min_entropy(state: CQState) -> float:
    """``H_min(A|E)``: minus log of the sandwiched operator norm."""
    return state.decomposition.min_entropy()


def mutual_info_variants(state: CQState) -> dict[str, float]:
    """``{I, I_prime, I_bar, I_bar_prime}`` mutual-information values."""
    return state.decomposition.mutual_info_variants()


def trace_distances(state: CQState) -> dict[str, float]:
    """Trace-norm distances from the product and uniform-product operators."""
    return state.decomposition.trace_distances()


def phi_quantity(state: CQState, t: float) -> float:
    """The smoothing-method functional ``phi(t)``.

    Computable here on ``t in [0, PHI_T_MAX]``; the exponent optimization
    only ever uses ``[0, 1/2]``, but the bracketing checks against
    ``s H_{1+s}`` evaluate phi on the wider range.
    """
    return state.decomposition.phi(t)


def relative_entropies(rho: np.ndarray, sigma: np.ndarray) -> dict[str, float]:
    """Both relative entropies ``D`` and ``Dbar`` of the Hermitian array ``rho`` from ``sigma``.

    Returns infinities when ``rho`` has more than 1e-10 mass outside the
    support of ``sigma``.
    """
    rho, sigma = hermitian_entries(rho, atol=None), hermitian_entries(sigma, atol=None)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {len(rho)} vs {len(sigma)}")
    lam, rvecs = eig_hermitian(rho)
    mu, svecs = eig_hermitian(sigma)
    lam, mu = np.maximum(lam, 0.0), np.maximum(mu, 0.0)
    cut = SUPPORT_RTOL * (float(mu[0]) if mu.size else 0.0)
    supp = mu > cut
    ov = np.abs(rvecs.conj().T @ svecs) ** 2
    out_mass = float(np.sum(lam @ ov[:, ~supp])) if np.any(~supp) else 0.0
    if out_mass > 1e-10:
        return {"D": math.inf, "D_bar": math.inf}
    log_mu = np.zeros_like(mu)
    log_mu[supp] = np.log(mu[supp])
    tr_log_self = float(np.sum(lam[lam > 0.0] * np.log(lam[lam > 0.0])))
    d_val = tr_log_self - float(lam @ ov @ log_mu)

    inv_sqrt = np.zeros_like(mu)
    inv_sqrt[supp] = mu[supp] ** -0.5
    b = (svecs * inv_sqrt) @ svecs.conj().T
    x = b @ rho @ b
    x = (x + x.conj().T) / 2
    xi, w = np.linalg.eigh(x)
    xi = np.maximum(xi, 0.0)
    keep = xi > SUPPORT_RTOL * (float(xi[-1]) if xi.size else 0.0)
    weights = np.maximum(np.real(np.einsum("ji,jk,ki->i", w.conj(), rho, w)), 0.0)
    dbar = float(np.sum(weights[keep] * np.log(xi[keep])))
    return {"D": d_val, "D_bar": dbar}


# -- joint-matrix cross-check oracle ------------------------------------------


def _sandwich(state: CQState) -> np.ndarray:
    op = tensor(np.eye(state.alphabet_size), matrix_power(eve_marginal(state), -0.5))
    return hermitian_entries(op @ joint_density(state) @ op, atol=None)


def renyi_cond_joint(state: CQState, s: float) -> float:
    """``H_{1+s}(A|E)`` evaluated on the full joint matrix."""
    _check_order(s, allow_zero=True)
    rho = joint_density(state)
    if s == 0.0:
        return _entropy_of(eig_hermitian(rho)[0]) - _entropy_of(eig_hermitian(eve_marginal(state))[0])
    op = tensor(np.eye(state.alphabet_size), matrix_power(eve_marginal(state), -s))
    return -math.log(float(np.trace(matrix_power(rho, 1.0 + s) @ op).real)) / s


def renyi_cond_bar_star_joint(state: CQState, s: float) -> float:
    """``Hbar*_{1+s}(A|E)`` evaluated on the full joint matrix."""
    _check_order(s, allow_zero=False)
    return -math.log(float(np.trace(joint_density(state) @ matrix_power(_sandwich(state), s)).real)) / s


def cond_entropy_bar_joint(state: CQState) -> float:
    """``Hbar(A|E)`` evaluated on the full joint matrix."""
    return -float(np.trace(joint_density(state) @ matrix_log(_sandwich(state))).real)


def min_entropy_joint(state: CQState) -> float:
    """``H_min(A|E)`` evaluated on the full joint matrix."""
    return -math.log(float(np.max(np.abs(eig_hermitian(_sandwich(state))[0]))))


def _product_operators(state: CQState) -> tuple[np.ndarray, np.ndarray]:
    """``P_A (x) rho^E`` and ``(I / |A|) (x) rho^E``."""
    eve = eve_marginal(state)
    n = state.alphabet_size
    return tensor(np.diag(state.probs), eve), tensor(np.eye(n) / n, eve)


def mutual_info_variants_joint(state: CQState) -> dict[str, float]:
    """Mutual-information variants via relative entropies of joint operators."""
    rho = joint_density(state)
    d, dp = (relative_entropies(rho, prod) for prod in _product_operators(state))
    return {"I": d["D"], "I_prime": dp["D"], "I_bar": d["D_bar"], "I_bar_prime": dp["D_bar"]}


def trace_distances_joint(state: CQState) -> dict[str, float]:
    """Trace distances via eigenvalues of the joint difference operators."""
    rho = joint_density(state)
    d1, d1p = (float(np.sum(np.abs(np.linalg.eigvalsh(rho - prod)))) for prod in _product_operators(state))
    return {"d1": d1, "d1_prime": d1p}


def phi_quantity_joint(state: CQState, t: float) -> float:
    """``phi(t)`` via a matrix power of the joint operator and a partial trace."""
    if not (0.0 <= t <= 0.5):
        raise ValueError(f"phi is defined for t in [0, 1/2], got {t}")
    alpha = 1.0 / (1.0 - t)
    rho_pow = matrix_power(joint_density(state), alpha)
    d = state.eve_dim
    traced = np.zeros((d, d), dtype=np.complex128)
    for a in range(state.alphabet_size):
        traced += rho_pow[a * d : (a + 1) * d, a * d : (a + 1) * d]
    eta = np.maximum(np.linalg.eigvalsh((traced + traced.conj().T) / 2), 0.0)
    return math.log(float(np.sum(eta ** (1.0 - t))))


# -- report ---------------------------------------------------------------


def quantity_report(state: CQState, s_values=(0.5,)) -> dict[str, float]:
    """The full quantity roster at the given order parameters, in nats, sorted by key."""
    dec = state.decomposition
    out: dict[str, float] = {
        "H_AE": dec.joint_entropy(),
        "H_E": dec.eve_entropy(),
        "H_A": dec.classical_entropy(),
        "H_cond": dec.cond_entropy(),
        "H_cond_bar": dec.cond_entropy_bar(),
        "H_min": dec.min_entropy(),
    }
    out.update(dec.mutual_info_variants())
    out.update(dec.trace_distances())
    for s in s_values:
        out[f"H_renyi({s:g})"] = dec.renyi_cond(s)
        if s > 0.0:
            out[f"H_renyi_bar_star({s:g})"] = dec.renyi_cond_bar_star(s)
        if 0.0 <= s <= 0.5:
            out[f"phi({s:g})"] = dec.phi(s)
    _check_order_keys(s_values)  # after the evaluations, which name an invalid order first
    cap = math.log(state.alphabet_size) + 1e-9
    capped = ("H_cond", "H_renyi(", "H_min")
    if dec._bar_terms[2] == 0.0:  # a shortfall (nonzero log_mass) rightly lifts Hbar*_{1+s} above log|A|
        capped += ("H_renyi_bar_star(",)
    for key, val in out.items():
        if not math.isfinite(val):
            raise ValueError(f"quantity {key} is not finite")
        if key.startswith(capped) and val > cap:
            raise ValueError(f"conditional entropy {key}={val} exceeds log|A|")
    return dict(sorted(out.items()))
