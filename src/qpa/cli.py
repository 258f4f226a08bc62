"""Command-line front end.

Commands: ``quantities`` (information-quantity report), ``verify`` (hashing
bound suites), ``exponents`` (decay exponents at given rates), ``sweep``
(exponent curve as CSV), ``rates`` (equivocation and leak rates), and
``selftest`` (embedded closed-form checks). Data files always carry nats;
``--log-base bits`` rescales the text display of ``quantities``,
``exponents`` and ``rates`` only. Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import exponents as expmod
from . import quantities as qmod
from . import verification as vmod
from .cqstate import (
    AlphabetMismatchError,
    StateFormatError,
    StateValidationError,
    clipped,
    load_state_json,
    make_cq_state,
    preset,
    tensor_power,
)
from .exponents import fmt
from .hashing import collision_stats, make_family, member_function, parse_family
from .hermitian import EigenConvergenceError, SizeCapError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_INVALID_STATE = 3
EXIT_MISMATCH = 4
EXIT_IO = 5
EXIT_CAP = 6
EXIT_NUMERIC = 7

LOG2 = math.log(2.0)


def _load_state(args):
    if getattr(args, "preset", None):
        return preset(args.preset)
    if getattr(args, "state", None):
        with open(args.state, "r", encoding="utf-8") as handle:
            return load_state_json(handle.read())
    raise ValueError("one of --preset or --state is required")


def _parse_floats(text: str) -> list[float]:
    values = []
    for part in filter(str.strip, text.split(",")):
        try:  # + 0.0 turns a parsed -0 into 0, which every output then prints and keys as 0
            values.append(float(part) + 0.0)
        except ValueError:
            raise ValueError(f"could not convert string to float: {clipped(part)!r}") from None
    return values


def _parse_rates(text: str) -> list[float]:
    rates = _parse_floats(text)
    if not rates:
        raise ValueError(f"--r needs at least one key rate, got {clipped(text)!r}")
    return rates


def _scale(args) -> float:
    """Divisor from nats to the ``--log-base`` unit of the text display."""
    return LOG2 if args.log_base == "bits" else 1.0


def _emit(args, doc, lines) -> None:
    """Write ``doc`` as key-sorted JSON under ``--format json`` (listing a ``map``), else the text ``lines``."""
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True, default=list)
    else:
        text = "\n".join(lines)
    _write_output(args.output, text + "\n")


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qpa-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # the replace did not happen
                os.unlink(tmp)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None  # the -o path, not the temporary file


# report-key prefix, display label; the key's parameter and ")" follow the prefix
_PARAMETER_SYMBOLS = (
    ("H_renyi_bar_star(", "Hbar*_(1+s)(A|E), s="),
    ("H_renyi(", "H_(1+s)(A|E), s="),
    ("phi(", "phi(t), t="),
)


def _display_symbol(key: str) -> str:
    if key in qmod.QUANTITY_SYMBOLS:
        return qmod.QUANTITY_SYMBOLS[key]
    for prefix, label in _PARAMETER_SYMBOLS:
        if key.startswith(prefix):
            return label + key[len(prefix) : -1]
    return key


def cmd_quantities(args) -> int:
    report = qmod.quantity_report(_load_state(args), _parse_floats(args.s))
    scale = _scale(args)
    lines = [f"{'quantity':36s} value [{args.log_base}]"]
    lines += (f"{_display_symbol(key):36s} {fmt(val / scale)}" for key, val in report.items())
    _emit(args, {"units": "nats", "values": report}, lines)
    return EXIT_OK


def _lift_to_domain(state, domain: int):
    """Tensor-power a state so its alphabet matches a family domain."""
    size = state.alphabet_size
    power = 1
    while 1 < size < domain:
        size *= state.alphabet_size
        power += 1
    if size != domain:
        raise AlphabetMismatchError(
            f"family domain {domain} is not a power of the alphabet size {state.alphabet_size}"
        )
    return tensor_power(state, power)


def cmd_verify(args) -> int:
    if args.suite == "full":
        for flag in ("s", "family", "preset", "state"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} cannot be combined with --suite full, which ignores it")
        reports = vmod.run_full_suite()
    else:
        if not args.family:
            raise ValueError("verify needs --family unless --suite full is given")
        s_grid = tuple(_parse_floats(args.s)) if args.s is not None else vmod.DEFAULT_S_GRID
        s_grid = vmod.check_s_grid(s_grid)  # a bad grid exits 2 before the lift, the certification and their caps
        state = _load_state(args)
        family = parse_family(args.family)
        state = _lift_to_domain(state, family.domain_size)
        universal2 = collision_stats(family).is_universal2  # its cap fails at once, before the enumeration
        reports = vmod.verify_hashing_bounds(state, family, s_grid, name=args.preset or args.state)
        if not universal2:
            print(f"warning: family {family.describe()} is not universal_2", file=sys.stderr)
    lines = [
        f"{'PASS' if rep.passed else 'FAIL'}  {rep.check:28s} slack={fmt(rep.slack):>18s}  "
        f"state={rep.metadata.get('state', '')} family={rep.metadata.get('family', '')}"
        for rep in reports
    ]
    lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    _emit(args, map(vmod.BoundReport.to_json_dict, reports), lines)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def cmd_exponents(args) -> int:
    state = _load_state(args)
    rows = expmod.exponent_rows(state, _parse_rates(args.r))
    scale = _scale(args)
    lines = [f"{'R':>14s} {'e_H':>14s} {'s*':>8s} {'e_H_q':>14s} {'s*':>8s} {'e_phi_q':>14s} {'t*':>8s} {'e_d_lower':>14s}"]
    lines += (
        f"{fmt(row.R / scale):>14s} {fmt(row.e_H / scale):>14s} {fmt(row.s_star_H):>8s} "
        f"{fmt(row.e_H_q / scale):>14s} {fmt(row.s_star_Hq):>8s} "
        f"{fmt(row.e_phi_q / scale):>14s} {fmt(row.t_star):>8s} {fmt(row.e_d_lower / scale):>14s}"
        for row in rows
    )
    _emit(args, {"units": "nats", "rows": [vars(row) for row in rows]}, lines)
    return EXIT_OK


def cmd_sweep(args) -> int:
    state = _load_state(args)
    r_max = args.r_max if args.r_max is not None else math.log(state.alphabet_size)
    curve = expmod.exponent_curve(state, args.r_min, r_max, args.steps)
    _write_output(args.output, curve.to_csv_text())
    return EXIT_OK


def cmd_rates(args) -> int:
    state = _load_state(args)
    points = [expmod.rates(state, r) for r in _parse_rates(args.r)]
    scale = _scale(args)
    lines = [f"{'R':>14s} {'equivocation':>14s} {'min_leak_rate':>14s} {'optimal_rate':>14s}"]
    lines += (" ".join(f"{fmt(v / scale):>14s}" for v in vars(p).values()) for p in points)
    _emit(args, {"units": "nats", "rows": [vars(p) for p in points]}, lines)
    return EXIT_OK


def _selftest_checks():
    """Closed-form expectations with no free parameters."""
    tol = 1e-9

    def close(x, y, t=tol):
        return abs(x - y) <= t

    # state layer
    copy = preset("copy")
    product = preset("product")
    try:
        make_cq_state([0.7, 0.4], [np.eye(2) / 2, np.eye(2) / 2])
        yield "bad distribution rejected", False
    except StateValidationError:
        yield "bad distribution rejected", True

    # quantity closed forms
    for s in (0.25, 0.5, 1.0):
        yield f"product H_(1+s) at s={s}", close(qmod.renyi_cond(product, s), LOG2)
        yield f"product Hbar*_(1+s) at s={s}", close(qmod.renyi_cond_bar_star(product, s), LOG2)
        yield f"copy H_(1+s) at s={s}", close(qmod.renyi_cond(copy, s), 0.0)
        yield f"copy Hbar*_(1+s) at s={s}", close(qmod.renyi_cond_bar_star(copy, s), 0.0)
    yield "product H(A|E)", close(qmod.cond_entropy(product), LOG2)
    yield "copy H(A|E)", close(qmod.cond_entropy(copy), 0.0)
    yield "product I' = 0", close(qmod.mutual_info_variants(product)["I_prime"], 0.0)
    yield "copy I' = log 2", close(qmod.mutual_info_variants(copy)["I_prime"], LOG2)
    yield "product d1' = 0", close(product.decomposition.trace_distances()["d1_prime"], 0.0)
    yield "copy d1' = 1", close(copy.decomposition.trace_distances()["d1_prime"], 1.0)
    yield "product phi(0.25) = -log2/4", close(product.decomposition.phi(0.25), -0.25 * LOG2)
    yield "phi(0) = 0", close(preset("tilted-qubit").decomposition.phi(0.0), 0.0, 1e-10)

    # hashing layer
    fam = make_family("toeplitz", 2, 2, 1)
    yield "toeplitz q=2,k=2,m=1 has 4 members", fam.member_count == 4
    yield "toeplitz family is universal_2", collision_stats(fam).is_universal2
    mod = make_family("modified_toeplitz", 2, 2, 1)
    yield "modified q=2,k=2,m=1 has 2 members", mod.member_count == 2
    yield "modified member X=1 table", member_function(mod, 1).table == (0, 1, 1, 0)
    yield "modified q=3,k=3,m=1 has 9 members", make_family("modified_toeplitz", 3, 3, 1).member_count == 9

    # verification closed forms
    yield "hashing bound rhs, product M=2 s=1", close(vmod.avg_leak_bound_rhs(product, 2, 1.0), 1.0)
    yield "hashing bound rhs, copy M=2 s=1", close(vmod.avg_leak_bound_rhs(copy, 2, 1.0), 2.0)
    yield "finite-size bound, copy M=2 s=1", close(vmod.finite_size_bound(copy, 2, 1.0), 2 * LOG2)
    yield "finite-size bound, product M=2 s=1", close(vmod.finite_size_bound(product, 2, 1.0), LOG2)
    product2 = tensor_power(product, 2)
    rep1 = vmod.verify_avg_leak_bound(product2, mod, name="product^2")
    yield "hashing bound I', product^2", rep1.passed and close(rep1.lhs, 0.0)
    rep2 = vmod.verify_exp_leak_bound(product2, mod, name="product^2")
    yield "hashing bound exp(s Ibar'), product^2", rep2.passed and close(rep2.lhs, 1.0)

    # exponents and rates
    row = expmod.exponent_row(product, 0.3)
    yield "product e_H(0.3)", close(row.e_H, LOG2 - 0.3) and close(row.s_star_H, 1.0, 1e-6)
    yield "product e_phi_q(0.3)", close(row.e_phi_q, (LOG2 - 0.3) / 2) and close(row.t_star, 0.5, 1e-6)
    yield "copy e_H(0.3) = 0", expmod.exponent_row(copy, 0.3).e_H == 0.0
    point = expmod.rates(product, 1.0)
    yield "product rates at R=1", close(point.equivocation, LOG2) and close(point.min_leak_rate, 1 - LOG2)
    point = expmod.rates(copy, 0.5)
    yield "copy rates at R=0.5", close(point.equivocation, 0.0) and close(point.min_leak_rate, 0.5)


def cmd_selftest(args) -> int:
    failures = 0
    for label, ok in _selftest_checks():
        status = "ok" if ok else "FAIL"
        print(f"selftest: {label}: {status}")
        if not ok:
            failures += 1
    print(f"selftest: {failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named state, e.g. product or bb84(0.3927)")
    p.add_argument("--state", help="path to a JSON state file")


def _add_output_args(p: argparse.ArgumentParser, log_base: bool = True) -> None:
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    if log_base:
        p.add_argument("--log-base", choices=("nats", "bits"), default="nats", help="unit of the text display")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpa",
        description="Information quantities and universal_2 hashing bounds for classical-quantum states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantities", help="report the information quantities of a state")
    _add_state_args(p)
    p.add_argument("--s", default="0.5", help="comma-separated order parameters")
    _add_output_args(p)
    p.set_defaults(fn=cmd_quantities)

    p = sub.add_parser("verify", help="check the hashing bounds by exact enumeration")
    _add_state_args(p)
    p.add_argument("--family", help="family descriptor, e.g. toeplitz:q=2,k=2,m=1")
    p.add_argument("--s", help="comma-separated order grid (default 0.1..1.0)")
    p.add_argument("--suite", choices=("full",), help="run the whole standard corpus")
    _add_output_args(p, log_base=False)  # slacks are nats or, for the exp bound, ratios
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("exponents", help="decay exponents at given key rates")
    _add_state_args(p)
    p.add_argument("--r", default="0.2", help="comma-separated key rates in nats")
    _add_output_args(p)
    p.set_defaults(fn=cmd_exponents)

    p = sub.add_parser("sweep", help="exponent curve over a rate range, as CSV")
    _add_state_args(p)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=None, help="default log|A|")
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("rates", help="equivocation and leak rates at given key rates")
    _add_state_args(p)
    p.add_argument("--r", default="0.5", help="comma-separated key rates in nats")
    _add_output_args(p)
    p.set_defaults(fn=cmd_rates)

    p = sub.add_parser("selftest", help="run the embedded closed-form checks")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"error: JSON parse failure at line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_PARSE
    except StateFormatError as exc:
        print(f"error: bad state document: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StateValidationError as exc:
        print(f"error: invalid state ({exc.invariant}): {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE
    except SizeCapError as exc:
        print(f"error: resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (EigenConvergenceError, np.linalg.LinAlgError, expmod.ExponentComparisonError) as exc:
        print(f"error: internal numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AlphabetMismatchError as exc:
        print(f"error: family/alphabet mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except OSError as exc:
        if isinstance(exc, FileNotFoundError) and exc.filename == getattr(args, "state", None):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
