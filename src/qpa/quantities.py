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

from .cqstate import CQState, eve_marginal, joint_density
from .hermitian import (
    SUPPORT_RTOL,
    HermitianMatrix,
    eigh_batch,
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


def _entropy_of(values: np.ndarray) -> float:
    vals = values[values > 0.0]
    return 0.0 - math.fsum(v * math.log(v) for v in vals.tolist())


def _check_order(s: float, *, allow_zero: bool) -> None:
    if not (0.0 <= s <= S_MAX):
        raise ValueError(f"Renyi order parameter s={s} outside [0, {S_MAX}]")
    if s == 0.0 and not allow_zero:
        raise ValueError("s = 0 is the von Neumann limit; call cond_entropy_bar instead")


class StateDecomposition:
    """Spectral data of one state, shared by every blockwise formula.

    Holds the eigensystems of each ``rho_a`` and of the E marginal, the
    squared overlaps between them, and the eigensystem of each sandwiched
    block ``(rho^E)^{-1/2} rho_a (rho^E)^{-1/2}``. Each state builds one on
    first use (``CQState.decomposition``), and every quantity, check and
    exponent on the state reads it.
    """

    def __init__(self, state: CQState):
        self.rhos = state.rhos  # not the state itself, which holds this decomposition
        self.alphabet_size = state.alphabet_size
        self.probs = state.probs
        eve = eve_marginal(state)
        self.eve = eve
        espec = eve.spectrum
        mu = np.maximum(espec.eigenvalues, 0.0)
        cut = SUPPORT_RTOL * (float(mu[0]) if mu.size else 0.0)
        supp = mu > cut
        self.mu = mu
        self.eve_support = supp
        self.v_count = espec.distinct_count
        inv_sqrt = np.zeros_like(mu)
        inv_sqrt[supp] = mu[supp] ** -0.5
        vmat = espec.eigenvectors
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

    # flattened positive terms of the two Renyi traces, for grid evaluation:
    # the traces are sums of w * exp(s * g + c0) over fixed (weight, slope) pairs
    @functools.cached_property
    def _renyi_terms(self):
        offs, slopes = [], []
        log_mu = np.where(self.eve_support, np.log(np.where(self.eve_support, self.mu, 1.0)), 0.0)
        for a in range(self.alphabet_size):
            p = float(self.probs[a])
            if p <= 0.0:
                continue
            lam = self.lam[a]
            for i in np.flatnonzero(lam > 0.0):
                base = math.log(p) + math.log(float(lam[i]))
                row = self.overlap[a][i]
                for j in np.flatnonzero(self.eve_support & (row > 0.0)):
                    # term: O * p^{1+s} lam^{1+s} mu^{-s}
                    offs.append(math.log(float(row[j])) + base)
                    slopes.append(base - float(log_mu[j]))
        return np.array(offs), np.array(slopes)

    @functools.cached_property
    def _bar_terms(self):
        offs, slopes = [], []
        for a in range(self.alphabet_size):
            p = float(self.probs[a])
            if p <= 0.0:
                continue
            xi = self.xi[a]
            w = self.xi_weight[a]
            for j in np.flatnonzero((xi > 0.0) & (w > 0.0)):
                # term: w * p^{1+s} xi^s
                offs.append(math.log(float(w[j])) + math.log(p))
                slopes.append(math.log(p) + math.log(float(xi[j])))
        return np.array(offs), np.array(slopes)

    # log of P(a) lam_i^a, shifted by its maximum, for the phi functional
    @functools.cached_property
    def _phi_terms(self):
        mask = (self.lam > 0.0) & (self.probs[:, None] > 0.0)
        logp = np.log(np.where(self.probs > 0.0, self.probs, 1.0))
        loglam = np.log(np.where(self.lam > 0.0, self.lam, 1.0))
        base = np.where(mask, logp[:, None] + loglam, -np.inf)
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
        parts = [
            _entropy_of(self.probs[a] * self.lam[a])
            for a in range(self.alphabet_size)
            if self.probs[a] > 0.0
        ]
        return math.fsum(parts)

    def eve_entropy(self) -> float:
        return _entropy_of(self.mu)

    def classical_entropy(self) -> float:
        return _entropy_of(self.probs)

    def cond_entropy(self) -> float:
        return self.joint_entropy() - self.eve_entropy()

    def cond_entropy_bar(self) -> float:
        parts = []
        for a in range(self.alphabet_size):
            p = float(self.probs[a])
            if p <= 0.0:
                continue
            xi = self.xi[a]
            keep = self.xi_support[a]
            w = self.xi_weight[a]
            parts.append(p * float(np.sum(w[keep] * np.log(p * xi[keep]))))
        return -math.fsum(parts)

    # -- Renyi layer -------------------------------------------------------

    def renyi_cond(self, s: float) -> float:
        _check_order(s, allow_zero=True)
        if s == 0.0:
            return self.cond_entropy()
        supp = self.eve_support
        mu_pow = np.zeros_like(self.mu)
        mu_pow[supp] = self.mu[supp] ** (-s)
        parts = []
        for a in range(self.alphabet_size):
            p = float(self.probs[a])
            if p <= 0.0:
                continue
            lam_pow = self.lam[a] ** (1.0 + s)
            parts.append(p ** (1.0 + s) * float(lam_pow @ self.overlap[a] @ mu_pow))
        return -math.log(math.fsum(parts)) / s

    def renyi_cond_bar_star(self, s: float) -> float:
        _check_order(s, allow_zero=False)
        parts = []
        for a in range(self.alphabet_size):
            p = float(self.probs[a])
            if p <= 0.0:
                continue
            parts.append(p ** (1.0 + s) * float(np.sum(self.xi[a] ** s * self.xi_weight[a])))
        return -math.log(math.fsum(parts)) / s

    def renyi_cond_grid(self, s_values) -> np.ndarray:
        """Vectorized ``renyi_cond`` over an array of orders; s = 0 entries
        take the von Neumann limit."""
        s = np.asarray(s_values, dtype=float)
        offs, slopes = self._renyi_terms
        totals = np.exp(offs[:, None] + np.outer(slopes, s)).sum(axis=0)
        out = np.empty_like(s)
        pos = s > 0.0
        out[pos] = -np.log(totals[pos]) / s[pos]
        if np.any(~pos):
            out[~pos] = self.cond_entropy()
        return out

    def renyi_cond_bar_star_grid(self, s_values) -> np.ndarray:
        """Vectorized ``renyi_cond_bar_star`` over an array of positive orders."""
        s = np.asarray(s_values, dtype=float)
        if np.any(s <= 0.0):
            raise ValueError("the sandwiched-type order grid needs s > 0")
        offs, slopes = self._bar_terms
        totals = np.exp(offs[:, None] + np.outer(slopes, s)).sum(axis=0)
        return -np.log(totals) / s

    def min_entropy(self) -> float:
        best = max(
            float(self.probs[a]) * (float(self.xi[a][-1]) if self.xi[a].size else 0.0)
            for a in range(self.alphabet_size)
        )
        return -math.log(best)

    # -- mutual information layer -------------------------------------------

    def mutual_info_variants(self) -> dict[str, float]:
        supp = self.eve_support
        log_mu = np.zeros_like(self.mu)
        log_mu[supp] = np.log(self.mu[supp])
        i_parts = []
        ibar_parts = []
        ibarp_parts = []
        for a in range(self.alphabet_size):
            p = float(self.probs[a])
            if p <= 0.0:
                continue
            lam = self.lam[a]
            ov = self.overlap[a]
            out_mass = float(np.sum(lam @ ov[:, ~supp])) if np.any(~supp) else 0.0
            if out_mass > 1e-10:
                return {k: math.inf for k in ("I", "I_prime", "I_bar", "I_bar_prime")}
            tr_log_self = float(np.sum(lam[lam > 0.0] * np.log(lam[lam > 0.0])))
            tr_log_eve = float(lam @ ov @ log_mu)
            i_parts.append(p * (tr_log_self - tr_log_eve))
            xi = self.xi[a]
            keep = self.xi_support[a]
            w = self.xi_weight[a]
            tr_log_xi = float(np.sum(w[keep] * np.log(xi[keep])))
            w_mass = float(np.sum(w[keep]))
            ibar_parts.append(p * tr_log_xi)
            ibarp_parts.append(p * (math.log(self.alphabet_size * p) * w_mass + tr_log_xi))
        i_val = math.fsum(i_parts)
        i_prime = i_val + math.log(self.alphabet_size) - self.classical_entropy()
        return {
            "I": i_val,
            "I_prime": i_prime,
            "I_bar": math.fsum(ibar_parts),
            "I_bar_prime": math.fsum(ibarp_parts),
        }

    # -- distances and the phi functional ------------------------------------

    def trace_distances(self) -> dict[str, float]:
        eve = self.eve.mat
        n = self.alphabet_size
        d1_parts = []
        d1p_parts = []
        for a in range(n):
            rho = self.rhos[a]
            p = float(self.probs[a])
            diff = p * (rho - eve)
            d1_parts.append(float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))
            diffp = p * rho - eve / n
            d1p_parts.append(float(np.sum(np.abs(np.linalg.eigvalsh(diffp)))))
        return {"d1": math.fsum(d1_parts), "d1_prime": math.fsum(d1p_parts)}

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
    for key, val in out.items():
        if not math.isfinite(val):
            raise ValueError(f"quantity {key} is not finite")
        if key.startswith(("H_cond", "H_renyi", "H_min")) and val > cap:
            raise ValueError(f"conditional entropy {key}={val} exceeds log|A|")
    return QuantityReport(dict(sorted(out.items())))
