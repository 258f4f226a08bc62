"""Exact checks of the universal_2 privacy-amplification bounds.

Every ensemble expectation is a full enumeration over the hash family
(exact up to floating point), never a sampled estimate. Checks cover the
two hashing bounds, the finite-size key-quality bound, the pinching
inequalities, and the scalar-to-matrix inequality lemmas used by the
hashing-bound proofs. Both lemma difference matrices are spectral
functions of one PSD ``X``, hence diagonal in its eigenbasis: after one
eigenproblem their eigenvalues over the whole order grid are closed-form.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cqstate import AlphabetMismatchError, CQState, checked_states, hashed_blocks, preset, random_cq, tensor_power
from .hashing import HashFamily, make_family, member_tables
from .hermitian import SUPPORT_RTOL, eigh_batch, hermitian_entries
from .optimize import golden_max
from .quantities import S_MIN, DecompositionStack, StateDecomposition, _check_order

SLACK_TOL = 1e-9

# entries of the largest array a chunk of the family pass stacks: its
# (members * M, d, d) blocks and sandwiches, or its (members, |A|) tables
_STACK_ENTRIES = 2**14

DEFAULT_S_GRID = tuple(round(0.1 * i, 10) for i in range(1, 11))


@dataclasses.dataclass(frozen=True)
class BoundReport:
    """One verified inequality: both sides over the order grid plus the verdict."""

    check: str
    lhs: float
    rhs_by_s: dict[float, float]
    best_s: float
    slack: float
    passed: bool
    metadata: dict

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "state": self.metadata.get("state", ""),
            "family": self.metadata.get("family", ""),
            "lhs": self.lhs,
            "rhs_by_s": {f"{s:g}": rhs for s, rhs in sorted(self.rhs_by_s.items())},
            "best_s": self.best_s,
            "slack": self.slack,
            "passed": self.passed,
            "metadata": {k: v for k, v in sorted(self.metadata.items())},
        }


def _require_matching_domain(state: CQState, family: HashFamily) -> None:
    if family.domain_size != state.alphabet_size:
        raise AlphabetMismatchError(
            f"family domain {family.domain_size} != alphabet {state.alphabet_size}"
        )


def _check_s_grid(s_grid) -> tuple[float, ...]:
    grid = tuple(float(s) for s in s_grid)
    if not grid or any(not (0.0 < s <= 1.0) for s in grid):
        raise ValueError(f"the hashing bounds hold for s in (0, 1]; got grid {s_grid}")
    _check_order(grid, allow_zero=False)  # rejects subnormal orders
    return grid


def member_mutual_info(state: CQState, family: HashFamily) -> list[dict[str, float]]:
    """``mutual_info_variants`` of the hashed state, per member in index order.

    Each member's values are kept in the state's bounded memo
    (``StateDecomposition.memo``) under ``(M, table)``, so a table that an
    earlier family or chunk of the same state hashed is looked up, not
    hashed again. The rest go through one stacked pass per chunk of
    members, each array holding at most ``_STACK_ENTRIES`` entries (one
    member if it alone is larger): the chunk's new tables, each hashed once,
    then the checks of ``CQState`` and the spectra of ``StateDecomposition``
    on the whole stack of hashed states. Every value equals that of
    ``apply_function(state, f).decomposition.mutual_info_variants()``, and
    every member gets its own dict.
    """
    _require_matching_domain(state, family)
    memo = state.decomposition.memo
    big_m, d = family.range_size, state.eve_dim
    step = max(1, _STACK_ENTRIES // max(big_m * d * d, family.domain_size))
    out = []
    for start in range(0, family.member_count, step):
        tables = list(map(tuple, member_tables(family, start, min(start + step, family.member_count)).tolist()))
        rows = {t: memo.get((big_m, t)) for t in tables}  # in order of first appearance
        new = [t for t, row in rows.items() if row is None]
        if new:
            probs, blocks = hashed_blocks(state, np.array(new), big_m)
            shape = blocks.shape
            probs, rhos, lam, basis = checked_states(probs, blocks.reshape(-1, d, d))
            stack = DecompositionStack(probs, rhos.reshape(shape), lam.reshape(shape[:3]), basis.reshape(shape))
            for t, row in zip(new, stack.mutual_info_variants()):
                rows[t] = row
                memo.put((big_m, t), row)
        out.extend(dict(rows[t]) for t in tables)
    return out


def _avg_leak_rhs(dec: StateDecomposition, big_m: int, s: float) -> float:
    v = dec.v_count
    h = dec.renyi_cond(s)
    return (v**s) * math.exp(s * (math.log(big_m) - h)) / s


def avg_leak_bound_rhs(state: CQState, big_m: int, s: float) -> float:
    """Hashing bound on the averaged I': ``v^s M^s exp(-s H_{1+s}) / s``."""
    _check_s_grid((s,))
    return _avg_leak_rhs(state.decomposition, big_m, s)


def verify_avg_leak_bound(
    state: CQState,
    family: HashFamily,
    s_grid=DEFAULT_S_GRID,
    *,
    name: str = "",
    _members: list[dict[str, float]] | None = None,
) -> BoundReport:
    """Check ``E_X I' <= min_s v^s M^s exp(-s H_{1+s}) / s`` by enumeration."""
    _require_matching_domain(state, family)
    s_grid = _check_s_grid(s_grid)
    dec = state.decomposition
    v = dec.v_count
    big_m = family.range_size

    def rhs(s: float) -> float:
        return _avg_leak_rhs(dec, big_m, s)

    rhs_by_s = {float(s): rhs(float(s)) for s in s_grid}
    coarse_best = min(rhs_by_s, key=rhs_by_s.get)
    lo = max(min(s_grid) / 10.0, coarse_best - 0.1, S_MIN)  # no subnormal order
    hi = min(1.0, coarse_best + 0.1)
    best_s, neg_min = golden_max(lambda s: -rhs(s), lo, hi, tol=1e-4)
    rhs_min = -neg_min
    rhs_by_s[round(best_s, 12)] = rhs_min

    member_stats = _members if _members is not None else member_mutual_info(state, family)
    i_prime_vals = [ms["I_prime"] for ms in member_stats]
    i_vals = [ms["I"] for ms in member_stats]
    lhs = math.fsum(i_prime_vals) / family.member_count
    avg_i = math.fsum(i_vals) / family.member_count
    slack = rhs_min - lhs
    chain_ok = avg_i <= lhs + SLACK_TOL
    witness = min(range(len(i_prime_vals)), key=lambda idx: i_prime_vals[idx])
    return BoundReport(
        check="hashing-bound-I-prime",
        lhs=lhs,
        rhs_by_s=rhs_by_s,
        best_s=best_s,
        slack=slack,
        passed=bool(slack >= -SLACK_TOL and chain_ok),
        metadata={
            "state": name,
            "family": family.describe(),
            "v": v,
            "M": big_m,
            "avg_I": avg_i,
            "chain_avg_I_le_avg_I_prime": chain_ok,
            "best_member_index": witness,
            "best_member_I_prime": i_prime_vals[witness],
        },
    )


def verify_exp_leak_bound(
    state: CQState,
    family: HashFamily,
    s_grid=DEFAULT_S_GRID,
    *,
    name: str = "",
    _members: list[dict[str, float]] | None = None,
) -> BoundReport:
    """Check ``E_X exp(s Ibar') <= 1 + M^s exp(-s Hbar*_{1+s})`` on the grid.

    Also checks the averaged consequence
    ``s E_X Ibar' <= exp(s (log M - Hbar*_{1+s}))``.
    """
    _require_matching_domain(state, family)
    s_grid = _check_s_grid(s_grid)
    dec = state.decomposition
    big_m = family.range_size
    member_stats = _members if _members is not None else member_mutual_info(state, family)
    ibar_vals = [ms["I_bar_prime"] for ms in member_stats]
    avg_ibar = math.fsum(ibar_vals) / family.member_count

    rhs_by_s = {}
    lhs_by_s = {}
    derived_ok = True
    for s in s_grid:
        hbar = dec.renyi_cond_bar_star(s)
        rhs_by_s[s] = 1.0 + math.exp(s * (math.log(big_m) - hbar))
        lhs_by_s[s] = math.fsum(math.exp(s * val) for val in ibar_vals) / family.member_count
        if s * avg_ibar > math.exp(s * (math.log(big_m) - hbar)) + SLACK_TOL:
            derived_ok = False
    slack_by_s = {s: rhs_by_s[s] - lhs_by_s[s] for s in s_grid}
    slack = min(slack_by_s.values())
    # the binding order: the smallest within SLACK_TOL of the minimum, so that a
    # slack flat to rounding does not pick an order by its last bit
    best_s = min(s for s, gap in slack_by_s.items() if gap <= slack + SLACK_TOL)
    return BoundReport(
        check="hashing-bound-exp-Ibar-prime",
        lhs=lhs_by_s[best_s],
        rhs_by_s=rhs_by_s,
        best_s=best_s,
        slack=slack,
        passed=bool(slack >= -SLACK_TOL and derived_ok),
        metadata={
            "state": name,
            "family": family.describe(),
            "M": big_m,
            "lhs_by_s": {f"{s:g}": lhs for s, lhs in sorted(lhs_by_s.items())},
            "avg_I_bar_prime": avg_ibar,
            "derived_avg_bound_ok": derived_ok,
        },
    )


def finite_size_bound(state: CQState, big_m: int, s: float) -> float:
    """Key-quality bound ``log v + (log 2)/s + max(0, log M - H_{1+s})``."""
    _check_s_grid((s,))
    dec = state.decomposition
    h = dec.renyi_cond(s)
    return math.log(dec.v_count) + math.log(2.0) / s + max(0.0, math.log(big_m) - h)


def verify_hashing_bounds(
    state: CQState,
    family: HashFamily,
    s_grid=DEFAULT_S_GRID,
    *,
    name: str = "",
) -> list[BoundReport]:
    """Both hashing bounds for one state and family, from one enumeration."""
    s_grid = _check_s_grid(s_grid)  # before the enumeration, which is the expensive part
    members = member_mutual_info(state, family)
    return [
        verify(state, family, s_grid, name=name, _members=members)
        for verify in (verify_avg_leak_bound, verify_exp_leak_bound)
    ]


@dataclasses.dataclass(frozen=True)
class LemmaReport:
    """Minimum eigenvalues of the two lemma difference matrices over the grid."""

    min_eig_power: float  # (I + X^s) - (I + X)^s
    min_eig_log: float  # X^s / s - log(I + X)
    passed: bool


def _lemma_gaps(lam: np.ndarray, s_grid) -> tuple[np.ndarray, np.ndarray]:
    """``1 + lam^s - (1 + lam)^s`` and ``lam^s / s - log1p(lam)``, one row per order.

    ``lam`` are X's eigenvalues; as in ``matrix_power``, those at or below
    ``SUPPORT_RTOL * max(lam)`` count as exact zeros.
    """
    lam = np.where(lam > SUPPORT_RTOL * np.max(lam), lam, 0.0)
    s = np.asarray(s_grid, dtype=float)[:, None]
    lam_s = lam**s
    return 1.0 + lam_s - (1.0 + lam) ** s, lam_s / s - np.log1p(lam)


def matrix_lemma_checks(seed: int, dim: int, s_grid=DEFAULT_S_GRID) -> LemmaReport:
    """Check ``(I+X)^s <= I + X^s`` and ``log(I+X) <= X^s / s`` on a seeded PSD X.

    X, I + X and their spectral functions share X's eigenvectors, so the
    difference matrices' eigenvalues are :func:`_lemma_gaps` at X's
    eigenvalues (exactly 0 for the power lemma at ``s = 1``). Raises
    ``ValueError`` for a grid that is empty or leaves ``(0, 1]``.
    """
    grid = _check_s_grid(s_grid)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = hermitian_entries(g @ g.conj().T, atol=None)
    power_gap, log_gap = _lemma_gaps(eigh_batch(x[None])[0][0], grid)
    min_pow = float(np.min(power_gap))
    min_log = float(np.min(log_gap))
    return LemmaReport(min_pow, min_log, bool(min_pow >= -SLACK_TOL and min_log >= -SLACK_TOL))


@dataclasses.dataclass(frozen=True)
class PinchReport:
    """Pinching inequality and log-equality data for one state."""

    i_original: float
    i_pinched: float
    i_bar_pinched: float
    log_v: float
    passed: bool


def pinching_bound_check(state: CQState, *, name: str = "") -> PinchReport:
    """Check ``I <= I(pinched) + log v`` and ``I = Ibar`` on the pinched state.

    Pinching is one sandwich ``sum_k P_k rho_a P_k`` of the whole stack by
    the E marginal's eigenvalue-cluster projectors ``P_k``.
    """
    dec = state.decomposition
    v = dec.eve_vectors
    projectors = [v[:, a:b] @ v[:, a:b].conj().T for a, b in dec.eve_clusters]
    pinched = CQState(state.probs, sum(p @ state.rhos @ p for p in projectors))
    i_orig = dec.mutual_info_variants()["I"]
    pinched_info = pinched.decomposition.mutual_info_variants()
    log_v = math.log(dec.v_count)
    ok = (
        i_orig <= pinched_info["I"] + log_v + SLACK_TOL
        and abs(pinched_info["I"] - pinched_info["I_bar"]) <= SLACK_TOL
    )
    return PinchReport(i_orig, pinched_info["I"], pinched_info["I_bar"], log_v, bool(ok))


# -- standard corpus ----------------------------------------------------------


def default_corpus() -> list[tuple[str, CQState]]:
    """Presets, their in-cap 2-fold powers, and 20 seeded random states."""
    names = ["copy", "product", "tilted-qubit", "bb84(0.39269908169872414)", "depolarized(0.3)"]
    out = [(n, preset(n)) for n in names]
    for n, st in list(out):
        if st.alphabet_size == 2 and st.eve_dim == 2:
            out.append((f"{n}^2", tensor_power(st, 2)))
    for i in range(20):
        d_e = 2 if i % 2 == 0 else 3
        out.append((f"random(seed={i},|A|=4,d_E={d_e})", random_cq(i, 4, d_e)))
    return out


def families_for(alphabet_size: int, big_ms=(2, 4), q: int = 2) -> list[HashFamily]:
    """Both matrix family kinds over F_q matching the alphabet, one per range size."""
    k = 0
    n = alphabet_size
    while n > 1 and n % q == 0:
        n //= q
        k += 1
    if n != 1 or k == 0:
        raise AlphabetMismatchError(f"alphabet size {alphabet_size} is not a power of {q}")
    out = []
    for big_m in big_ms:
        m = round(math.log(big_m, q))
        if q**m != big_m or m > k:
            continue
        out.append(make_family("toeplitz", q, k, m))
        out.append(make_family("modified_toeplitz", q, k, m))
    return out


def run_full_suite(s_grid=DEFAULT_S_GRID) -> list[BoundReport]:
    """Both hashing bounds over the whole corpus, plus lemma and pinching checks."""
    corpus = default_corpus()
    reports: list[BoundReport] = []
    for name, state in corpus:
        for family in families_for(state.alphabet_size):
            reports.extend(verify_hashing_bounds(state, family, s_grid, name=name))

    lemma_mins = ([], [])
    idx = 0
    for dim in (2, 3, 4, 5, 6):
        for _ in range(40):
            rep = matrix_lemma_checks(seed=idx, dim=dim, s_grid=s_grid)
            lemma_mins[0].append(rep.min_eig_power)
            lemma_mins[1].append(rep.min_eig_log)
            idx += 1
    lemma_pass = min(lemma_mins[0]) >= -SLACK_TOL and min(lemma_mins[1]) >= -SLACK_TOL
    reports.append(
        BoundReport(
            check="matrix-lemmas",
            lhs=min(min(lemma_mins[0]), min(lemma_mins[1])),
            rhs_by_s={},
            best_s=0.0,
            slack=min(min(lemma_mins[0]), min(lemma_mins[1])),
            passed=bool(lemma_pass),
            metadata={"state": "200 seeded PSD matrices, dims 2-6", "family": ""},
        )
    )

    pinch_slack = math.inf
    pinch_ok = True
    for name, state in corpus:
        rep = pinching_bound_check(state, name=name)
        pinch_slack = min(pinch_slack, rep.i_pinched + rep.log_v - rep.i_original)
        pinch_ok = pinch_ok and rep.passed
    reports.append(
        BoundReport(
            check="pinching-bound",
            lhs=0.0,
            rhs_by_s={},
            best_s=0.0,
            slack=pinch_slack,
            passed=bool(pinch_ok),
            metadata={"state": "corpus", "family": ""},
        )
    )
    return reports
