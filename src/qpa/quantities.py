"""Information quantities of a classical-quantum state, in nats.

Every quantity decomposes over the block structure of the joint operator
(one stacked eigenproblem over the symbol blocks plus one for the E
marginal), which is the default evaluation path. The ``*_joint`` variants
evaluate the same formulas on the full joint matrix and are kept as
cross-check oracles.

Conventions: natural logarithms throughout; functions of rank-deficient
operators act on the support only (pseudo-inverse / pseudo-log); the Renyi
order parameter ``s`` means order ``1+s`` and ``s = 0`` denotes the von
Neumann limit.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .cqstate import CQState, eve_marginal, eve_marginal_entries, joint_density
from .hermitian import (
    SUPPORT_RTOL,
    HermitianMatrix,
    eigh_batch,
    eigh_descending,
    identity,
    matrix_log,
    matrix_power,
    tensor,
)

S_MAX = 4.0

# search grids of the smoothing-method exponents: s in [0, 1] and t in [0, 1/2]
S_GRID = np.linspace(0.0, 1.0, 1001)
T_GRID = np.linspace(0.0, 0.5, 1001)
S_GRID.setflags(write=False)
T_GRID.setflags(write=False)

# largest phi argument evaluated: beta = 1/(1-t) = 16; beyond this, double
# precision cannot carry the small inner eigenvalues back through the
# 1/beta root without silent truncation
PHI_T_MAX = 0.9375

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
    """The order parameters as a float array, each checked to lie in ``[0, S_MAX]``."""
    s = np.asarray(s, dtype=float)
    bad = ~((s >= 0.0) & (s <= S_MAX))
    if bad.any():
        raise ValueError(f"Renyi order parameter s={float(s[bad][0])} outside [0, {S_MAX}]")
    if not allow_zero and (s == 0.0).any():
        raise ValueError("s = 0 is the von Neumann limit; call cond_entropy_bar instead")
    return s


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


class StateDecomposition:
    """Spectral data of one state, shared by every blockwise formula.

    Holds the eigensystems of each ``rho_a`` and of the E marginal, the
    squared overlaps between them, and the eigensystem of each sandwiched
    block ``(rho^E)^{-1/2} rho_a (rho^E)^{-1/2}``, all as arrays with one
    row per symbol. Each state builds one on first use
    (``CQState.decomposition``), and every quantity, check and exponent on
    the state reads it.
    """

    def __init__(self, state: CQState):
        self.rhos = state.rhos  # not the state itself, which holds this decomposition
        self.alphabet_size = state.alphabet_size
        self.probs = state.probs
        self.eve_mat = eve_marginal_entries(state)
        eve_values, vmat, self.eve_clusters = eigh_descending(self.eve_mat)
        self.eve_vectors = vmat
        self.v_count = len(self.eve_clusters)
        mu = np.maximum(eve_values, 0.0)
        supp = mu > SUPPORT_RTOL * float(mu[0])
        self.mu = mu
        self.eve_support = supp
        inv_sqrt = np.zeros_like(mu)
        inv_sqrt[supp] = mu[supp] ** -0.5
        b = (vmat * inv_sqrt) @ vmat.conj().T  # (rho^E)^{-1/2} on the support

        lam, u = state.eve_eigh  # from the state's validation
        x = b @ self.rhos @ b
        xi, w = eigh_batch((x + np.conj(np.swapaxes(x, 1, 2))) / 2)
        xi = np.maximum(xi, 0.0)
        # per symbol a, row a of each array:
        self.lam = np.maximum(lam, 0.0)  # eigenvalues of rho_a
        self._basis = u  # eigenvectors of rho_a, columnwise
        self.overlap = np.abs(np.conj(np.swapaxes(u, 1, 2)) @ vmat) ** 2  # |<u_i^a | v_j>|^2
        self.xi = xi  # eigenvalues of the sandwiched block
        # <w_j| rho_a |w_j>
        self.xi_weight = np.maximum(np.real(np.einsum("aji,ajk,aki->ai", w.conj(), self.rhos, w)), 0.0)
        self.xi_support = xi > SUPPORT_RTOL * xi[:, -1:]

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

    @functools.cached_property
    def renyi_on_s_grid(self) -> np.ndarray:
        """``renyi_cond_grid(S_GRID)``, read-only: the rate-independent part of the e_H_q search."""
        values = self.renyi_cond_grid(S_GRID)
        values.setflags(write=False)
        return values

    @functools.cached_property
    def phi_on_t_grid(self) -> np.ndarray:
        """``phi_grid(T_GRID)``, read-only: the rate-independent part of the e_phi_q search."""
        values = self.phi_grid(T_GRID)
        values.setflags(write=False)
        return values

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
        """``H_{1+s}(A|E)`` over an array of orders in ``[0, S_MAX]``; s = 0
        entries take the von Neumann limit."""
        s = _check_order(s_values, allow_zero=True)
        pos = s > 0.0
        out = _renyi_from_terms(self._renyi_terms, np.where(pos, s, 1.0))
        if not pos.all():
            out = np.where(pos, out, self.cond_entropy())
        return out

    def renyi_cond_bar_star_grid(self, s_values) -> np.ndarray:
        """``Hbar*_{1+s}(A|E)`` over an array of orders in ``(0, S_MAX]``."""
        return _renyi_from_terms(self._bar_terms, _check_order(s_values, allow_zero=False))

    def min_entropy(self) -> float:
        return -math.log(float(np.max(self.probs * self.xi[:, -1])))

    # -- mutual information layer -------------------------------------------

    def mutual_info_variants(self) -> dict[str, float]:
        pos = self.probs > 0.0
        supp = self.eve_support
        # (1, d) @ (d, d) @ (d, 1) products per symbol, which round as per-row dots
        lam_ov = (self.lam[:, None, :] @ self.overlap)[pos]
        if np.any(np.sum(lam_ov[:, 0, ~supp], axis=1) > 1e-10):  # weight outside supp(rho^E)
            return {k: math.inf for k in ("I", "I_prime", "I_bar", "I_bar_prime")}
        p = self.probs[pos]
        lam = self.lam[pos]
        tr_log_self = np.sum(lam * _log_positive(lam), axis=1)
        tr_log_eve = (lam_ov @ np.where(supp, _log_positive(self.mu), 0.0)[:, None])[:, 0, 0]
        keep = self.xi_support[pos]
        w = np.where(keep, self.xi_weight[pos], 0.0)
        tr_log_xi = np.sum(w * _log_positive(self.xi[pos]), axis=1)
        # math.log, not np.log, which rounds some arguments differently
        log_ap = np.array([math.log(self.alphabet_size * x) for x in p.tolist()])
        i_val = math.fsum((p * (tr_log_self - tr_log_eve)).tolist())
        return {
            "I": i_val,
            "I_prime": i_val + math.log(self.alphabet_size) - self.classical_entropy(),
            "I_bar": math.fsum((p * tr_log_xi).tolist()),
            "I_bar_prime": math.fsum((p * (log_ap * np.sum(w, axis=1) + tr_log_xi)).tolist()),
        }

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
        """Vectorized phi over an array of parameters in ``[0, PHI_T_MAX]``.

        Builds the inner operator ``sum_a (P(a) rho_a)^{1/(1-t)}`` for every
        t in one batched eigenproblem. The top joint eigenvalue is factored
        out first so the inner powers cannot overflow. Beyond PHI_T_MAX the
        final ``1/beta`` root would re-amplify eigenvalues that underflowed,
        so larger arguments are rejected rather than computed wrong.
        """
        t = np.asarray(t_values, dtype=float)
        if np.any((t < 0.0) | (t > PHI_T_MAX)):
            raise ValueError(f"phi is computable for t in [0, {PHI_T_MAX}], got {t_values}")
        alpha = 1.0 / (1.0 - t)
        top, shifted, u_conj = self._phi_terms
        weights = np.exp(alpha[:, None, None] * shifted[None, :, :])  # (T, n, d)
        inner = np.einsum("aij,taj,akj->tik", self._basis, weights, u_conj)
        inner = (inner + np.conj(np.swapaxes(inner, 1, 2))) / 2
        eta = np.maximum(np.linalg.eigvalsh(inner), 0.0)  # (T, d)
        return top + np.log(np.sum(eta ** (1.0 - t)[:, None], axis=1))


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


def relative_entropies(rho: HermitianMatrix, sigma: HermitianMatrix) -> dict[str, float]:
    """Both relative entropies ``D`` and ``Dbar`` of ``rho`` from ``sigma``.

    Returns infinities when ``rho`` has more than 1e-10 mass outside the
    support of ``sigma``.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    rspec = rho.spectrum
    sspec = sigma.spectrum
    lam = np.maximum(rspec.eigenvalues, 0.0)
    mu = np.maximum(sspec.eigenvalues, 0.0)
    cut = SUPPORT_RTOL * (float(mu[0]) if mu.size else 0.0)
    supp = mu > cut
    ov = np.abs(rspec.eigenvectors.conj().T @ sspec.eigenvectors) ** 2
    out_mass = float(np.sum(lam @ ov[:, ~supp])) if np.any(~supp) else 0.0
    if out_mass > 1e-10:
        return {"D": math.inf, "D_bar": math.inf}
    log_mu = np.zeros_like(mu)
    log_mu[supp] = np.log(mu[supp])
    tr_log_self = float(np.sum(lam[lam > 0.0] * np.log(lam[lam > 0.0])))
    d_val = tr_log_self - float(lam @ ov @ log_mu)

    inv_sqrt = np.zeros_like(mu)
    inv_sqrt[supp] = mu[supp] ** -0.5
    b = (sspec.eigenvectors * inv_sqrt) @ sspec.eigenvectors.conj().T
    x = b @ rho.mat @ b
    x = (x + x.conj().T) / 2
    xi, w = np.linalg.eigh(x)
    xi = np.maximum(xi, 0.0)
    keep = xi > SUPPORT_RTOL * (float(xi[-1]) if xi.size else 0.0)
    weights = np.maximum(np.real(np.einsum("ji,jk,ki->i", w.conj(), rho.mat, w)), 0.0)
    dbar = float(np.sum(weights[keep] * np.log(xi[keep])))
    return {"D": d_val, "D_bar": dbar}


# -- joint-matrix cross-check oracle ------------------------------------------


def _sandwich(state: CQState) -> HermitianMatrix:
    rho = joint_density(state)
    eve_inv_sqrt = matrix_power(eve_marginal(state), -0.5)
    op = tensor(identity(state.alphabet_size), eve_inv_sqrt)
    return HermitianMatrix(op.mat @ rho.mat @ op.mat, atol=None)


def renyi_cond_joint(state: CQState, s: float) -> float:
    """``H_{1+s}(A|E)`` evaluated on the full joint matrix."""
    _check_order(s, allow_zero=True)
    if s == 0.0:
        rho = joint_density(state)
        eve = eve_marginal(state)
        return _entropy_of(rho.spectrum.eigenvalues) - _entropy_of(eve.spectrum.eigenvalues)
    rho = joint_density(state)
    rho_pow = matrix_power(rho, 1.0 + s)
    eve_pow = matrix_power(eve_marginal(state), -s)
    op = tensor(identity(state.alphabet_size), eve_pow)
    return -math.log(float(np.trace(rho_pow.mat @ op.mat).real)) / s


def renyi_cond_bar_star_joint(state: CQState, s: float) -> float:
    """``Hbar*_{1+s}(A|E)`` evaluated on the full joint matrix."""
    _check_order(s, allow_zero=False)
    rho = joint_density(state)
    sand_pow = matrix_power(_sandwich(state), s)
    return -math.log(float(np.trace(rho.mat @ sand_pow.mat).real)) / s


def cond_entropy_bar_joint(state: CQState) -> float:
    """``Hbar(A|E)`` evaluated on the full joint matrix."""
    rho = joint_density(state)
    return -float(np.trace(rho.mat @ matrix_log(_sandwich(state)).mat).real)


def min_entropy_joint(state: CQState) -> float:
    """``H_min(A|E)`` evaluated on the full joint matrix."""
    return -math.log(_sandwich(state).operator_norm())


def mutual_info_variants_joint(state: CQState) -> dict[str, float]:
    """Mutual-information variants via relative entropies of joint operators."""
    rho = joint_density(state)
    eve = eve_marginal(state)
    n = state.alphabet_size
    marg_a = HermitianMatrix(np.diag(state.probs.astype(complex)), atol=None)
    mix_a = HermitianMatrix(np.eye(n) / n, atol=None)
    prod = tensor(marg_a, eve)
    prod_mix = tensor(mix_a, eve)
    d = relative_entropies(rho, prod)
    dp = relative_entropies(rho, prod_mix)
    return {"I": d["D"], "I_prime": dp["D"], "I_bar": d["D_bar"], "I_bar_prime": dp["D_bar"]}


def trace_distances_joint(state: CQState) -> dict[str, float]:
    """Trace distances via eigenvalues of the joint difference operators."""
    rho = joint_density(state).mat
    eve = eve_marginal(state)
    n = state.alphabet_size
    marg_a = HermitianMatrix(np.diag(state.probs.astype(complex)), atol=None)
    prod = tensor(marg_a, eve).mat
    prod_mix = tensor(HermitianMatrix(np.eye(n) / n, atol=None), eve).mat
    d1 = float(np.sum(np.abs(np.linalg.eigvalsh(rho - prod))))
    d1p = float(np.sum(np.abs(np.linalg.eigvalsh(rho - prod_mix))))
    return {"d1": d1, "d1_prime": d1p}


def phi_quantity_joint(state: CQState, t: float) -> float:
    """``phi(t)`` via a matrix power of the joint operator and a partial trace."""
    if not (0.0 <= t <= 0.5):
        raise ValueError(f"phi is defined for t in [0, 1/2], got {t}")
    alpha = 1.0 / (1.0 - t)
    rho_pow = matrix_power(joint_density(state), alpha).mat
    d = state.eve_dim
    traced = np.zeros((d, d), dtype=np.complex128)
    for a in range(state.alphabet_size):
        traced += rho_pow[a * d : (a + 1) * d, a * d : (a + 1) * d]
    eta = np.maximum(np.linalg.eigvalsh((traced + traced.conj().T) / 2), 0.0)
    return math.log(float(np.sum(eta ** (1.0 - t))))


# -- report ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class QuantityReport:
    """Named quantity values at the requested orders, in nats."""

    values: dict[str, float]
    units: str = "nats"


def quantity_report(state: CQState, s_values=(0.5,)) -> QuantityReport:
    """Compute the full quantity roster at the given order parameters."""
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
    cap = math.log(state.alphabet_size) + 1e-9
    capped = ("H_cond", "H_renyi(", "H_min")
    if dec._bar_terms[2] == 0.0:  # a shortfall (nonzero log_mass) rightly lifts Hbar*_{1+s} above log|A|
        capped += ("H_renyi_bar_star(",)
    for key, val in out.items():
        if not math.isfinite(val):
            raise ValueError(f"quantity {key} is not finite")
        if key.startswith(capped) and val > cap:
            raise ValueError(f"conditional entropy {key}={val} exceeds log|A|")
    return QuantityReport(dict(sorted(out.items())))
