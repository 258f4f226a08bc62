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
import functools
import itertools
import math

import numpy as np

from .cqstate import (
    AlphabetMismatchError, CQState, checked_states, clipped, hashed_blocks, preset, random_cq, tensor_power
)
from .hashing import HashFamily, make_family, member_tables
from .hermitian import SUPPORT_RTOL, eigh_batch, hermitian_entries
from .optimize import increasing_roots
from .quantities import (
    _STACK_ENTRIES,
    S_MIN,
    DecompositionStack,
    StateDecomposition,
    _check_order,
    _check_order_keys,
    decompose,
)

SLACK_TOL = 1e-9

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
            # orders within 5e-7 share a key; the smaller rhs, written last, keeps it
            "rhs_by_s": {f"{s:g}": rhs for s, rhs in sorted(self.rhs_by_s.items(), key=lambda item: -item[1])},
            "best_s": self.best_s,
            "slack": self.slack,
            "passed": self.passed,
            "metadata": {k: v for k, v in sorted(self.metadata.items())},
        }


def check_s_grid(s_grid) -> tuple[float, ...]:
    grid = tuple(float(s) for s in s_grid)
    if not grid or any(not (0.0 < s <= 1.0) for s in grid):
        raise ValueError(f"the hashing bounds hold for s in (0, 1]; got grid {clipped(s_grid)}")
    _check_order(grid, allow_zero=False)  # rejects a subnormal order
    _check_order_keys(grid)
    return grid


def _checked_stack(probs: np.ndarray, blocks: np.ndarray) -> DecompositionStack:
    """``checked_states`` and ``DecompositionStack`` of ``(n, |A|)`` probabilities and ``(n, |A|, d, d)`` eve states."""
    shape = blocks.shape
    probs, rhos, lam, basis = checked_states(probs, blocks.reshape(-1, *shape[2:]))
    return DecompositionStack(probs, rhos.reshape(shape), lam.reshape(shape[:3]), basis.reshape(shape))


def grouped_member_mutual_info(pairs) -> list[list[dict[str, float]]]:
    """``mutual_info_variants`` of the hashed state, per member in index order, for each ``(state, family)`` pair.

    Each family's members are enumerated once per pass. Per ``(M, d)`` group, each distinct table of
    a state is hashed once, in chunks whose arrays hold at most ``_STACK_ENTRIES`` entries at the
    group's largest domain (one table if it alone is larger): one ``hashed_blocks`` per state's run,
    one ``_checked_stack`` per chunk. No state's decomposition is built or read. Every value equals that of
    ``apply_function(state, f).decomposition.mutual_info_variants()``; each member gets its own dict.
    """
    groups = {}
    for i, (state, family) in enumerate(pairs):
        if family.domain_size != state.alphabet_size:
            raise AlphabetMismatchError(f"family domain {family.domain_size} != alphabet {state.alphabet_size}")
        groups.setdefault((family.range_size, state.eve_dim), []).append(i)
    tables = {}  # family -> its members' tables, enumerated once per pass
    found = {}  # (state, M, table) -> row for every table of the pass
    for (big_m, d), group in groups.items():
        step = max(1, _STACK_ENTRIES // max(big_m * d * d, max(pairs[i][1].domain_size for i in group)))
        new = {}  # state -> its distinct tables, in order of first appearance
        for i in group:
            state, family = pairs[i]
            if family not in tables:
                tables[family] = [
                    tuple(t)
                    for start in range(0, family.member_count, step)
                    for t in member_tables(family, start, min(start + step, family.member_count)).tolist()
                ]
            new.setdefault(state, {}).update(dict.fromkeys(tables[family]))
        entries = [(state, t) for state, ts in new.items() for t in ts]
        for start in range(0, len(entries), step):
            chunk = entries[start : start + step]
            runs = itertools.groupby(chunk, key=lambda entry: entry[0])  # one run per state
            parts = [hashed_blocks(state, np.array([t for _, t in run]), big_m) for state, run in runs]
            arrays = [np.concatenate(a) if len(parts) > 1 else a[0] for a in zip(*parts)]  # a lone run, uncopied
            stack = _checked_stack(*arrays)
            for (state, t), row in zip(chunk, stack.mutual_info_variants()):
                found[state, big_m, t] = row
    return [[dict(found[state, family.range_size, t]) for t in tables[family]] for state, family in pairs]


def _avg_leak_rhs(v: int, big_m: int, s: float, h: float) -> float:
    """``v^s M^s exp(-s h) / s`` at the order s, where ``h = H_{1+s}``."""
    return (v**s) * math.exp(s * (math.log(big_m) - h)) / s


def avg_leak_bound_rhs(state: CQState, big_m: int, s: float) -> float:
    """Hashing bound on the averaged I': ``v^s M^s exp(-s H_{1+s}) / s``."""
    check_s_grid((s,))
    dec = state.decomposition
    return _avg_leak_rhs(dec.v_count, big_m, s, dec.renyi_cond(s))


def _avg_leak_orders(big_ms: dict, s_grid: tuple[float, ...]) -> dict:
    """Per state of ``big_ms`` (state -> its range sizes M): ``H_{1+s}`` by order, and the order minimising the
    averaged-leak bound by M.

    ``log rhs(s) = s log(vM) + psi(s) - log s`` is convex, so its minimum over all of ``(0, 1]`` is at the root of
    ``log(vM) + psi'(s) - 1/s``, clamped to 1. Every ``(state, M)`` is one row of one ``increasing_roots`` call. The
    numerators are Python floats over one cache of ``psi'`` by ``(decomposition, s)``, so the rows of a state share
    its moment evaluations. ``H_{1+s}`` at the grid and at a state's roots comes from one grid call per state.
    """
    rows = [(state.decomposition, m) for state, ms in big_ms.items() for m in ms]
    slope = functools.cache(lambda dec, s: dec.renyi_cond_moments(s)[1])
    log_vm = [math.log(dec.v_count * m) for dec, m in rows]

    def numerator(s, r):
        return log_vm[r] + slope(rows[r][0], s) - 1.0 / s

    f_lo, f_hi = ([numerator(end, r) for r in range(len(rows))] for end in (S_MIN, 1.0))
    fn = lambda x, active: np.array([numerator(s, r) for s, r in zip(x.tolist(), active.tolist())])
    found = dict(zip(rows, increasing_roots(fn, f_lo, f_hi, S_MIN, 1.0).tolist()))
    out = {}
    for state, ms in big_ms.items():
        dec = state.decomposition
        roots = {m: found[dec, m] for m in ms}
        orders = tuple(dict.fromkeys((*s_grid, *roots.values())))  # a root clamped to 1 is a grid order
        out[state] = dict(zip(orders, dec.renyi_cond_grid(orders).tolist())), roots
    return out


def verify_avg_leak_bound(state: CQState, family: HashFamily, s_grid=DEFAULT_S_GRID, *, name: str = "") -> BoundReport:
    """Check ``E_X I' <= min_s v^s M^s exp(-s H_{1+s}) / s`` by enumeration.

    The minimum is over all of ``(0, 1]`` (see ``_avg_leak_orders``); the grid is reported, not searched.
    """
    return verify_hashing_bounds(state, family, s_grid, name=name)[0]


def _avg_leak_report(dec: StateDecomposition, family: HashFamily, members, s_grid, h, best_s, name) -> BoundReport:
    v, big_m = dec.v_count, family.range_size
    rhs_by_s = {s: _avg_leak_rhs(v, big_m, s, h[s]) for s in s_grid}
    rhs_by_s[round(best_s, 12)] = rhs_min = _avg_leak_rhs(v, big_m, best_s, h[best_s])
    i_prime_vals = [ms["I_prime"] for ms in members]
    i_vals = [ms["I"] for ms in members]
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


def verify_exp_leak_bound(state: CQState, family: HashFamily, s_grid=DEFAULT_S_GRID, *, name: str = "") -> BoundReport:
    """Check ``E_X exp(s Ibar') <= 1 + M^s exp(-s Hbar*_{1+s})`` on the grid.

    Also checks the averaged consequence
    ``s E_X Ibar' <= exp(s (log M - Hbar*_{1+s}))``.
    """
    return verify_hashing_bounds(state, family, s_grid, name=name)[1]


def _exp_leak_report(family: HashFamily, members, s_grid, hbar: np.ndarray, name: str) -> BoundReport:
    big_m = family.range_size
    ibar_vals = [ms["I_bar_prime"] for ms in members]
    avg_ibar = math.fsum(ibar_vals) / family.member_count

    rhs_by_s = {}
    lhs_by_s = {}
    derived_ok = True
    for s, hb in zip(s_grid, hbar.tolist()):
        rhs_by_s[s] = 1.0 + math.exp(s * (math.log(big_m) - hb))
        lhs_by_s[s] = math.fsum(math.exp(s * val) for val in ibar_vals) / family.member_count
        if s * avg_ibar > math.exp(s * (math.log(big_m) - hb)) + SLACK_TOL:
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
    check_s_grid((s,))
    dec = state.decomposition
    h = dec.renyi_cond(s)
    return math.log(dec.v_count) + math.log(2.0) / s + max(0.0, math.log(big_m) - h)


def _hashing_reports(named_pairs, s_grid: tuple[float, ...]) -> list[list[BoundReport]]:
    """Both hashing-bound reports for each ``(name, state, family)``, from one family pass over all pairs.

    The right-hand sides depend on the state, M and s only: each state's orders are evaluated once.
    """
    members = grouped_member_mutual_info([(state, family) for _, state, family in named_pairs])
    big_ms = {}
    for _, state, family in named_pairs:
        big_ms.setdefault(state, set()).add(family.range_size)
    h_roots = _avg_leak_orders(big_ms, s_grid)
    hbar = {state: state.decomposition.renyi_cond_bar_star_grid(s_grid) for state in big_ms}
    reports = []
    for (name, state, family), rows in zip(named_pairs, members):
        h, roots = h_roots[state]
        avg = _avg_leak_report(state.decomposition, family, rows, s_grid, h, roots[family.range_size], name)
        reports.append([avg, _exp_leak_report(family, rows, s_grid, hbar[state], name)])
    return reports


def verify_hashing_bounds(
    state: CQState, family: HashFamily, s_grid=DEFAULT_S_GRID, *, name: str = ""
) -> list[BoundReport]:
    """Both hashing bounds for one state and family: the one-pair case of ``_hashing_reports``.

    The grid is checked first, before the enumeration, which is the expensive part.
    """
    return _hashing_reports([(name, state, family)], check_s_grid(s_grid))[0]


@dataclasses.dataclass(frozen=True)
class LemmaReport:
    """Minimum eigenvalues of the two lemma difference matrices over the grid."""

    min_eig_power: float  # (I + X^s) - (I + X)^s
    min_eig_log: float  # X^s / s - log(I + X)
    passed: bool


def _lemma_gaps(lam: np.ndarray, s_grid) -> tuple[np.ndarray, np.ndarray]:
    """``1 + lam^s - (1 + lam)^s`` and ``lam^s / s - log1p(lam)``, shaped ``(..., order, d)``.

    ``lam`` are the eigenvalues of X, or of a stack of X along its leading axes; as in ``matrix_power``,
    those at or below ``SUPPORT_RTOL`` times their row's maximum count as exact zeros.
    """
    lam = np.where(lam > SUPPORT_RTOL * np.max(lam, axis=-1, keepdims=True), lam, 0.0)[..., None, :]
    s = np.asarray(s_grid, dtype=float)[:, None]
    lam_s = lam**s
    return 1.0 + lam_s - (1.0 + lam) ** s, lam_s / s - np.log1p(lam)


def stacked_matrix_lemma_checks(seeds, dim: int, s_grid=DEFAULT_S_GRID) -> list[LemmaReport]:
    """Check ``(I+X)^s <= I + X^s`` and ``log(I+X) <= X^s / s`` on the seeded PSD X of each seed.

    X, I + X and their spectral functions share X's eigenvectors, so the
    difference matrices' eigenvalues are :func:`_lemma_gaps` at X's
    eigenvalues (exactly 0 for the power lemma at ``s = 1``), from one
    eigenproblem over the stack of every seed's X. Raises ``ValueError`` for
    a grid that is empty or leaves ``(0, 1]``.
    """
    grid = check_s_grid(s_grid)
    zs = [rng.normal(size=(2, dim, dim)) for rng in map(np.random.default_rng, seeds)]  # one draw: real, imaginary
    xs = hermitian_entries([g @ g.conj().T for g in (z[0] + 1j * z[1] for z in zs)], 3, atol=None)
    power_gap, log_gap = _lemma_gaps(eigh_batch(xs)[0], grid)
    return [
        LemmaReport(p, q, p >= -SLACK_TOL and q >= -SLACK_TOL)
        for p, q in zip(power_gap.min(axis=(1, 2)).tolist(), log_gap.min(axis=(1, 2)).tolist())
    ]


def matrix_lemma_checks(seed: int, dim: int, s_grid=DEFAULT_S_GRID) -> LemmaReport:
    """The one-seed case of :func:`stacked_matrix_lemma_checks`."""
    return stacked_matrix_lemma_checks([seed], dim, s_grid)[0]


@dataclasses.dataclass(frozen=True)
class PinchReport:
    """Pinching inequality and log-equality data for one state."""

    i_original: float
    i_pinched: float
    i_bar_pinched: float
    log_v: float
    passed: bool


def grouped_pinching_checks(states) -> list[PinchReport]:
    """Check ``I <= I(pinched) + log v`` and ``I = Ibar`` on each pinched state.

    Pinching is one sandwich ``sum_k P_k rho_a P_k`` of a state's stack by its
    E marginal's eigenvalue-cluster projectors ``P_k``. The pinched states of
    one ``(|A|, d)`` shape are checked and decomposed as one stack, whose rows
    equal the decompositions of the pinched ``CQState`` objects.
    """
    groups = {}
    for state in states:
        groups.setdefault((state.alphabet_size, state.eve_dim), []).append(state)
    reports = {}
    for group in groups.values():
        pinched = []
        for state in group:
            v = state.decomposition.eve_vectors
            projectors = [v[:, a:b] @ v[:, a:b].conj().T for a, b in state.decomposition.eve_clusters]
            pinched.append(sum(p @ state.rhos @ p for p in projectors))
        stack = _checked_stack(np.stack([state.probs for state in group]), np.stack(pinched))
        for state, info in zip(group, stack.mutual_info_variants()):
            i_orig, log_v = state.decomposition.mutual_info_variants()["I"], math.log(state.decomposition.v_count)
            ok = i_orig <= info["I"] + log_v + SLACK_TOL and abs(info["I"] - info["I_bar"]) <= SLACK_TOL
            reports[state] = PinchReport(i_orig, info["I"], info["I_bar"], log_v, bool(ok))
    return [reports[state] for state in states]


def pinching_bound_check(state: CQState) -> PinchReport:
    """The one-state case of :func:`grouped_pinching_checks`."""
    return grouped_pinching_checks([state])[0]


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


def families_for(alphabet_size: int) -> list[HashFamily]:
    """Both matrix family kinds over F_2 matching the alphabet, for the range sizes 2 and 4 that fit it."""
    if alphabet_size < 2 or alphabet_size & (alphabet_size - 1):
        raise AlphabetMismatchError(f"alphabet size {alphabet_size} is not a power of 2")
    k = alphabet_size.bit_length() - 1
    return [make_family(kind, 2, k, m) for m in (1, 2) if m <= k for kind in ("toeplitz", "modified_toeplitz")]


def run_full_suite() -> list[BoundReport]:
    """Both hashing bounds over the whole corpus, plus lemma and pinching checks."""
    corpus = default_corpus()
    decompose(state for _, state in corpus)  # one stack per (|A|, d) shape
    pairs = [(name, state, family) for name, state in corpus for family in families_for(state.alphabet_size)]
    reports = [rep for both in _hashing_reports(pairs, DEFAULT_S_GRID) for rep in both]

    lemmas = []
    for dim in range(2, 7):  # seeds 0-39 in dimension 2, up to seeds 160-199 in dimension 6
        lemmas += stacked_matrix_lemma_checks(range(40 * (dim - 2), 40 * (dim - 1)), dim)
    lemma_min = min(min(rep.min_eig_power for rep in lemmas), min(rep.min_eig_log for rep in lemmas))
    reports.append(
        BoundReport(
            check="matrix-lemmas",
            lhs=lemma_min,
            rhs_by_s={},
            best_s=0.0,
            slack=lemma_min,
            passed=all(rep.passed for rep in lemmas),
            metadata={"state": "200 seeded PSD matrices, dims 2-6", "family": ""},
        )
    )

    pinches = grouped_pinching_checks([state for _, state in corpus])
    reports.append(
        BoundReport(
            check="pinching-bound",
            lhs=0.0,
            rhs_by_s={},
            best_s=0.0,
            slack=min(rep.i_pinched + rep.log_v - rep.i_original for rep in pinches),
            passed=all(rep.passed for rep in pinches),
            metadata={"state": "corpus", "family": ""},
        )
    )
    return reports
