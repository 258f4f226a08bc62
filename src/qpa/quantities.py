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

# largest phi argument evaluated: 1/(1-t) = 16. One SVD of the stacked factor gives phi to
# 1e-15 for t <= 1/2, but above it the error grows: 5.4e-12 at t = 0.9 and 1.9e-6 here on
# random states, and 2.7e-10 at t = 0.75 with eigenvalues 1e-8 in each rho_a
PHI_T_MAX = 0.9375

# entries of the largest array a stacked evaluation holds: a chunk of orders of phi's stacked factors or
# of a Renyi grid (orders × entries per order), or of the family pass in qpa.verification
_STACK_ENTRIES = 2**14

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


def _grid(values) -> np.ndarray:
    """``values`` as a 1-d float array; any other shape is rejected by name."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"a grid must be a 1-d array, got shape {grid.shape}")
    return grid


def _check_order(s, *, allow_zero: bool) -> list[float]:
    """The order parameters as a flat list of floats, each checked to be 0 or to lie in ``[S_MIN, S_MAX]``."""
    values = np.asarray(s, dtype=float).reshape(-1).tolist()
    if not all(S_MIN <= x <= S_MAX for x in values):  # else name the first order outside, subnormal, then zero
        if (x := next((x for x in values if not 0.0 <= x <= S_MAX), None)) is not None:
            raise ValueError(f"Renyi order parameter s={x} outside [0, {S_MAX}]")
        if (x := next((x for x in values if 0.0 < x < S_MIN), None)) is not None:
            raise ValueError(f"Renyi order parameter s={x} is subnormal, below {S_MIN}")
        if not allow_zero:
            raise ValueError("s = 0 is the von Neumann limit Hbar(A|E); call StateDecomposition.cond_entropy_bar()")
    return values


def _check_order_keys(orders) -> None:
    """Reject two distinct orders that print as one ``f"{s:g}"`` key, under which one value would hide the other."""
    first = {}
    for s in orders:
        if first.setdefault(key := f"{s:g}", s) != s:
            raise ValueError(f"orders {first[key]!r} and {s!r} share the printed key {key!r}")


def _normalised_terms(offs: np.ndarray, slopes: np.ndarray, log_mass: float = 0.0):
    """``(w, g, log_mass)`` with ``w_k = exp(off_k) / sum_j exp(off_j)``, for ``_renyi_moments``."""
    weights = np.exp(offs - offs.max())
    return weights / weights.sum(), slopes, log_mass


def _renyi_moments(terms, s, slope: bool = True) -> tuple:
    """``(psi, psi')``, or ``(psi,)`` without ``slope``, of ``psi(s) = log(sum_k exp(off_k + s g_k)) = -s H_{1+s}``
    at an order s (a float) or at each order of a 1-d array, which gets the float case's values bit for bit:
    ``np.vecdot`` rounds each row as the 1-d ``@`` does, where a stacked ``@`` does not.

    ``psi = log_mass + log1p(total)`` for ``total = sum_k w_k grow_k`` and ``grow_k = expm1(s g_k)`` over the
    cached ``_normalised_terms``, which stays accurate as ``s -> 0``: the sum is ``O(s)`` and holds no rounding
    error of ``sum_k exp(off_k)``, which ``-psi / s`` would amplify by ``1/s``. That sum is the mass of the state,
    one up to rounding (within 2.6e-15 over the states that ``verify --suite full`` decomposes), so taking it as
    exactly one changes values only at rounding level; a genuine shortfall enters as ``log_mass``. ``psi'`` is the
    mean of the slopes under the tilted weights ``w_k exp(s g_k) / exp(psi)``, and ``psi''`` their variance.
    """
    weights, slopes, log_mass = terms
    grow = np.expm1(np.multiply.outer(s, slopes))
    total = np.vecdot(grow, weights)
    psi = log_mass + np.log1p(total)
    if not slope:
        return (psi,)
    return psi, np.vecdot(weights * (1.0 + grow) / (1.0 + total)[..., None], slopes)


def _renyi_grid(terms, orders: np.ndarray, slope: bool) -> tuple:
    """``_renyi_moments`` of a 1-d array of orders, in chunks of at most ``_STACK_ENTRIES`` orders × terms."""
    step = max(1, _STACK_ENTRIES // terms[1].size)
    parts = [_renyi_moments(terms, orders[i : i + step], slope) for i in range(0, max(orders.size, 1), step)]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


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
        # <w_j| rho_a |w_j>: the real diagonal of W^H rho_a W, from one batched matmul
        self.xi_weight = np.maximum(np.real(np.sum(w.conj() * (rhos @ w), axis=-2)), 0.0)
        self.xi_support = xi > SUPPORT_RTOL * xi[..., -1:]

    @classmethod
    def of_states(cls, states) -> "DecompositionStack":
        """The stack of states of one ``(|A|, d)`` shape, one row each, from their validation eigensystems."""
        lam, basis = (np.stack(arrays) for arrays in zip(*(state.eve_eigh for state in states)))
        return cls(np.stack([state.probs for state in states]), np.stack([state.rhos for state in states]), lam, basis)

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

    _mutual_info = functools.cached_property(mutual_info_variants)  # for StateDecomposition, once per stack


class StateDecomposition:
    """Spectral data of one state, shared by every blockwise formula.

    Holds the eigensystems of each ``rho_a`` and of the E marginal, the
    squared overlaps between them, and the eigensystem of each sandwiched
    block ``(rho^E)^{-1/2} rho_a (rho^E)^{-1/2}``, all as arrays with one
    row per symbol: row ``row`` of a :class:`DecompositionStack`, by default
    of the state's own one-row stack. Each state gets one on first use
    (``CQState.decomposition``) or from :func:`decompose`, and every
    quantity, check and exponent on the state reads it.
    """

    def __init__(self, state: CQState, stack: DecompositionStack | None = None, row: int = 0):
        self.rhos = state.rhos  # not the state itself, which holds this decomposition
        self.alphabet_size = state.alphabet_size
        self.probs = state.probs
        self._stack, self._row = stack or DecompositionStack.of_states([state]), row
        for name in ("eve_mat", "eve_vectors", "mu", "eve_support", "lam", "overlap", "xi", "xi_weight", "xi_support"):
            setattr(self, name, getattr(self._stack, name)[row])
        self._basis = self._stack.basis[row]
        self.eve_clusters = cluster_ranges(self._stack.eve_values[row])  # all of E, for the pinching projectors
        self.v_count = sum(bool(self.eve_support[start]) for start, _ in self.eve_clusters)  # those on the support

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

    # the finite log P(a) lam_i^a, shifted by their maximum top, and their eigenvectors as (d, K) columns
    @functools.cached_property
    def _phi_terms(self):
        mask = (self.lam > 0.0) & (self.probs[:, None] > 0.0)
        base = (_log_positive(self.probs)[:, None] + _log_positive(self.lam))[mask]
        top = float(np.max(base))
        return top, base - top, np.swapaxes(self._basis, 0, 1)[:, mask]

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

    def renyi_cond(self, s: float) -> float:
        return float(self.renyi_cond_grid([s])[0])

    def renyi_cond_bar_star(self, s: float) -> float:
        return float(self.renyi_cond_bar_star_grid([s])[0])

    def renyi_cond_grid(self, s_values) -> np.ndarray:
        """``H_{1+s}(A|E) = -psi(s) / s`` over an array of orders in ``[0, S_MAX]``; s = 0
        entries take the von Neumann limit."""
        _check_order(orders := _grid(s_values), allow_zero=True)
        values = -_renyi_grid(self._renyi_terms, orders, slope=False)[0] / np.where(orders == 0.0, 1.0, orders)
        return np.where(orders == 0.0, self.cond_entropy(), values) if 0.0 in orders else values

    def renyi_cond_moments(self, s: float) -> tuple[float, float]:
        """``(psi, psi')`` of the convex ``psi(s) = -s H_{1+s}(A|E)`` at one order s."""
        (s,) = _check_order(s, allow_zero=True)
        return tuple(map(float, _renyi_moments(self._renyi_terms, s)))

    def renyi_cond_moments_grid(self, s_values) -> tuple[np.ndarray, np.ndarray]:
        """``(psi, psi')`` at each order of a 1-d array in ``[0, S_MAX]``, each equal to ``renyi_cond_moments``'s."""
        _check_order(orders := _grid(s_values), allow_zero=True)
        return _renyi_grid(self._renyi_terms, orders, slope=True)

    def renyi_cond_bar_star_grid(self, s_values) -> np.ndarray:
        """``Hbar*_{1+s}(A|E)`` over an array of orders in ``(0, S_MAX]``."""
        _check_order(orders := _grid(s_values), allow_zero=False)
        return -_renyi_grid(self._bar_terms, orders, slope=False)[0] / orders

    def min_entropy(self) -> float:
        return -math.log(float(np.max(self.probs * self.xi[:, -1])))

    # -- mutual information layer -------------------------------------------

    def mutual_info_variants(self) -> dict[str, float]:
        return dict(self._stack._mutual_info[self._row])

    # -- distances and the phi functional ------------------------------------

    def trace_distances(self) -> dict[str, float]:
        n = self.alphabet_size
        p = self.probs[:, None, None]
        # rows 0..n-1: P(a) (rho_a - rho^E); rows n..2n-1: P(a) rho_a - rho^E / |A|
        diffs = np.concatenate([p * (self.rhos - self.eve_mat), p * self.rhos - self.eve_mat / n])
        norms = np.sum(np.abs(np.linalg.eigvalsh(diffs)), axis=1).tolist()
        return {"d1": math.fsum(norms[:n]), "d1_prime": math.fsum(norms[n:])}

    def phi(self, t: float) -> float:
        return float(self.phi_grid([t])[0])

    def phi_grid(self, t_values) -> np.ndarray:
        """phi over a 1-d array of t in ``[0, PHI_T_MAX]``, from one SVD of the stacked factor per t.

        Each value equals ``phi_and_slope``'s bit for bit; ``PHI_T_MAX`` records the error above t = 1/2.
        """
        return self.phi_and_slope_grid(t_values)[0]

    def phi_and_slope(self, t: float) -> tuple[float, float]:
        """``(phi(t), phi'(t))`` at one t in ``[0, PHI_T_MAX]``, from one SVD of the stacked factor."""
        phi, slope = self.phi_and_slope_grid([t])
        return float(phi[0]), float(slope[0])

    def phi_and_slope_grid(self, t_values) -> tuple[np.ndarray, np.ndarray]:
        """``(phi, phi')`` at each t of a 1-d array, in chunks of at most ``_STACK_ENTRIES`` factor entries;
        each pair equals ``phi_and_slope``'s bit for bit.

        ``X(t) / exp(alpha top) = Y = F F^H`` for ``alpha = 1/(1-t)`` and the stacked factor
        ``F = [U_a diag(w_a^{alpha/2})]_a``, with ``w_a``, ``U_a`` the eigensystem of
        ``P(a) rho_a / exp(top)``. ``F``'s squared singular values ``eta`` keep the small
        eigenvalues of ``Y`` that ``Y``'s own eigenproblem rounds away (Demmel & Veselic 1992):
        ``phi = top + log sum eta^{1-t}``. ``d Tr f(X) = Tr f'(X) dX`` gives
        ``phi' = Tr Y^{-t} (sum_a Y_a log Y_a - Y log Y) / Tr Y^{1-t}`` on ``Y``'s support,
        where ``<v_i| sum_a Y_a log Y_a |v_i> = eta_i sum_k |vh_ik|^2 alpha log w_k``.
        """
        t = _grid(t_values)
        bad = ~((t >= 0.0) & (t <= PHI_T_MAX))
        if bad.any():
            raise ValueError(f"phi is computable for t in [0, {PHI_T_MAX}], got t={float(t[bad][0])}")
        top, log_w, columns = self._phi_terms
        rank = np.count_nonzero(self.eve_support)  # that of X(t): F's further singular values are rounding
        phi, slope, step = np.empty(t.shape), np.empty(t.shape), max(1, _STACK_ENTRIES // columns.size)
        for i in range(0, t.size, step):
            tc = t[i : i + step, None]
            alpha = 1.0 / (1.0 - tc)
            _, sigma, vh = np.linalg.svd(columns * np.exp(alpha * log_w / 2.0)[:, None], full_matrices=False)
            eta = sigma[:, :rank] ** 2
            powers = eta ** (1.0 - tc)
            trace = np.sum(powers, axis=1)
            phi[i : i + step] = top + np.log(trace)
            mean_log_w = np.abs(vh[:, :rank]) ** 2 @ log_w
            slope[i : i + step] = np.sum(powers * (alpha * mean_log_w - _log_positive(eta)), axis=1) / trace
        return phi, slope


def decompose(states) -> None:
    """Give each state that has no decomposition yet one, as a row of one stack per ``(|A|, d)`` shape."""
    groups = {}
    for state in states:
        if state._decomposition is None:
            groups.setdefault((state.alphabet_size, state.eve_dim), {})[state] = None  # a dict: repeats once
    for group in groups.values():
        stack = DecompositionStack.of_states(list(group))
        for row, state in enumerate(group):
            state._decomposition = StateDecomposition(state, stack, row)


# -- public operation surface ------------------------------------------------


def cond_entropy(state: CQState) -> float:
    """Conditional entropy ``H(A|E) = H(A,E) - H(E)``."""
    return state.decomposition.cond_entropy()


def renyi_cond(state: CQState, s: float) -> float:
    """Conditional Renyi entropy of order ``1+s``; ``s = 0`` gives ``H(A|E)``."""
    return state.decomposition.renyi_cond(s)


def renyi_cond_bar_star(state: CQState, s: float) -> float:
    """Sandwiched-type conditional Renyi entropy ``Hbar*_{1+s}(A|E)``."""
    return state.decomposition.renyi_cond_bar_star(s)


def mutual_info_variants(state: CQState) -> dict[str, float]:
    """``{I, I_prime, I_bar, I_bar_prime}`` mutual-information values."""
    return state.decomposition.mutual_info_variants()


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
