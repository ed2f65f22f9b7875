"""Command-line interface for scaffold verification, actions and freeness sweeps.

Exit codes are a stable contract: 0 success / all checks passed,
1 verification failure, 2 usage or validation error, 3 tolerance
hypothesis unmet, 141 stdout closed early by its reader (128 + SIGPIPE,
as `seq | head` gives).  JSON output is deterministic: keys sorted, check
records sorted, no timestamps.  With SCAFFOLD_LOG=DEBUG or NOTSET (any
case), stderr gets the line `DEBUG:hopfscaffold:dispatching <command>`;
any other value writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Iterable, NamedTuple, Optional, Sequence

from .action import act
from .base_arith import LaurentPoly
from .field_tower import ExtensionParams, l_valuation, lelement_from_text, lelement_to_text
from .hopf_dual import dual_from_text
from .hopf_primal import HopfParams
from .module_structure import (
    FreenessReport,
    InsufficientToleranceError,
    assoc_order_basis,
    is_free,
)
from .scaffold import STATUS_OK, scaffold_context, tolerance, verify_scaffold

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3

# widest --h range accepted; wider ones exit 2 before any report is computed
MAX_H_VALUES = 100_000
# largest h count times p^n a freeness run accepts (each report prints d and w
# tables of length p^n); larger ones exit 2 before any report is computed
MAX_FREENESS_ENTRIES = 1_000_000
# largest degree p^n accepted; larger ones exit 2 before p is tested for
# primality or anything of length p^n is allocated
MAX_DEGREE = 10_000


class RunConfig(NamedTuple):
    """Validated parameter set shared by all subcommands."""

    ext: ExtensionParams
    hopf: HopfParams
    output: str
    force: bool


def _check_degree(p: int, n: int) -> None:
    """Refuse n < 2, p < 2 or p^n > MAX_DEGREE, multiplying p^n out only until it passes the cap."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if p < 2:
        raise ValueError(f"p = {p} is not prime")
    degree = 1
    for _ in range(n):
        degree *= p
        if degree > MAX_DEGREE:
            raise ValueError(f"p^n = {p}^{n} exceeds {MAX_DEGREE}")


def _build_config(args: argparse.Namespace) -> RunConfig:
    _check_degree(args.p, args.n)
    beta = (
        LaurentPoly.from_text(args.beta, args.p)
        if args.beta is not None
        else LaurentPoly.monomial(args.p, -args.b)
    )
    if args.f is not None:
        f = LaurentPoly.from_text(args.f, args.p)
    else:
        f = LaurentPoly.monomial(args.p, args.f_val)
    ext = ExtensionParams(args.p, args.n, args.b, beta)
    hopf = HopfParams(args.p, args.n, args.r, f)
    if args.command in ("scaffold-verify", "assoc-order"):  # their reports carry the tolerance
        tol, limit = tolerance(ext, hopf), sys.get_int_max_str_digits()
        if tol is not None and limit and tol >= 10**limit:
            raise ValueError(f"tolerance p^n*v_K(f) - b*(p^(r+1) - 1) exceeds the int-to-text limit of {limit} digits")
    return RunConfig(ext, hopf, getattr(args, "output", "tsv"), getattr(args, "force", False))


def _int(text: str) -> int:
    """An integer in the digit rule of the text formats: ASCII digits after an optional -.

    Every refusal is ArgumentTypeError("invalid int value: ..."), also for
    more digits than int() converts.
    """
    try:
        if re.fullmatch(r"-?[0-9]+", text) is not None:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_h_range(text: str) -> range:
    lo_text, dots, hi_text = text.partition("..")
    lo = _int(lo_text)
    hi = _int(hi_text) if dots else lo
    if hi < lo:
        raise ValueError(f"empty h range {text!r}")
    if hi - lo >= MAX_H_VALUES:
        raise ValueError(f"h range {text!r} has more than {MAX_H_VALUES} values")
    return range(lo, hi + 1)


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_json_line(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


# -- subcommands --------------------------------------------------------------


def cmd_scaffold_verify(cfg: RunConfig) -> int:
    ctx = scaffold_context(cfg.ext, cfg.hopf)
    report = verify_scaffold(ctx)
    if cfg.output == "json":
        _emit_json(report.to_json_dict())
    elif cfg.output == "tsv":
        print("s\tj\tdigit\tunit\tpassed")
        for c in report.checks:
            unit = "" if c.unit is None else c.unit.to_text()
            print(f"{c.s}\t{c.j}\t{c.digit}\t{unit}\t{int(c.passed)}")
    else:
        head = (
            f"p={cfg.ext.p} n={cfg.ext.n} r={cfg.hopf.r} b={cfg.ext.b} "
            f"f={cfg.hopf.f} tolerance={report.tolerance} status={report.status}"
        )
        print(head)
        for c in report.checks:
            unit = "-" if c.unit is None else c.unit.to_text()
            verdict = "ok" if c.passed else "FAIL"
            print(f"  s={c.s} j={c.j} digit={c.digit} unit={unit} {verdict}")
        print("all passed" if report.all_passed else "FAILURES PRESENT")
    if report.status != STATUS_OK:
        return EXIT_HYPOTHESIS
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _freeness_line_tsv(report: FreenessReport) -> str:
    witness = "" if report.witness_j is None else str(report.witness_j)
    return "\t".join(
        [
            str(report.h.h_raw),
            str(report.h.h_norm),
            str(report.h.m),
            str(int(report.free)),
            witness,
            str(report.generator_count),
            ",".join(map(str, report.d_table)),
            ",".join(map(str, report.w_table)),
        ]
    )


def cmd_freeness(cfg: RunConfig, h_values: Iterable[int]) -> int:
    reports = (is_free(h, cfg.ext) for h in h_values)
    if cfg.output == "json":
        for report in reports:
            _emit_json_line(report.to_json_dict(cfg.hopf))
    elif cfg.output == "tsv":
        print("h_raw\th_norm\tm\tfree\twitness_j\tgenerator_count\td\tw")
        for report in reports:
            print(_freeness_line_tsv(report))
    else:
        for report in reports:
            verdict = "free" if report.free else f"not free (witness j={report.witness_j})"
            print(
                f"h = {report.h.h_raw} (norm {report.h.h_norm}, m = {report.h.m}): "
                f"{verdict}, generators = {report.generator_count}"
            )
            print(f"  d = {list(report.d_table)}")
            print(f"  w = {list(report.w_table)}")
    return EXIT_OK


def cmd_act(cfg: RunConfig, z_text: str, y_text: str) -> int:
    z = dual_from_text(z_text, cfg.hopf)
    y = lelement_from_text(y_text, cfg.ext)
    result = act(z, y, cfg.ext, cfg.hopf)
    val = l_valuation(result, cfg.ext)
    val_out: Optional[int] = None if result.is_zero() else int(val)
    text = lelement_to_text(result)
    if cfg.output == "json":
        _emit_json({"result": text, "v_L": val_out})
    elif cfg.output == "tsv":
        print("result\tv_L")
        print(f"{text}\t{'' if val_out is None else val_out}")
    else:
        print(text)
        print(f"v_L = {'+inf' if val_out is None else val_out}")
    return EXIT_OK


def cmd_assoc_order(cfg: RunConfig, h: int) -> int:
    try:
        basis = assoc_order_basis(h, cfg.ext, cfg.hopf, force=cfg.force)
    except InsufficientToleranceError as exc:
        print(f"error: {exc.reason}; pass --force to emit an untrusted listing", file=sys.stderr)
        return EXIT_HYPOTHESIS
    if cfg.output == "json":
        _emit_json(basis.to_json_dict(cfg.ext, cfg.hopf))
    elif cfg.output == "tsv":
        print("digits\tshift")
        for entry in basis.entries:
            print(f"{','.join(map(str, entry.digits))}\t{entry.shift}")
    else:
        idx = basis.h
        trust = "trusted" if basis.trusted else "UNTRUSTED (below licensing tolerance)"
        print(f"associated order of h = {idx.h_raw} (norm {idx.h_norm}), {trust}")
        for entry in basis.entries:
            print(f"  digits = {tuple(entry.digits)}  shift = {entry.shift}")
    return EXIT_OK


def cmd_atlas(cfg: RunConfig) -> int:
    # one full period of ideal classes, in window order
    print("h\tfree\tgenerator_count\twitness_j")
    for h in range(cfg.ext.b - cfg.ext.degree + 1, cfg.ext.b + 1):
        report = is_free(h, cfg.ext)
        witness = "" if report.witness_j is None else str(report.witness_j)
        print(f"{report.h.h_norm}\t{int(report.free)}\t{report.generator_count}\t{witness}")
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=_int, required=True, help="prime residue characteristic")
    parser.add_argument("--n", type=_int, required=True, help="extension degree exponent (degree p^n)")
    parser.add_argument("--r", type=_int, required=True, help="comultiplication twist level, 0 < r < n <= 2r")
    parser.add_argument("--b", type=_int, required=True, help="break number, positive and prime to p")
    f_group = parser.add_mutually_exclusive_group(required=True)
    f_group.add_argument("--f-val", type=_int, help="f = T^{f_val}")
    f_group.add_argument("--f", type=str, help="explicit Laurent polynomial f")
    parser.add_argument("--beta", type=str, default=None, help="explicit beta (default T^-b)")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfscaffold",
        description="Exact scaffold verification and integral structure for purely inseparable Hopf Galois extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sv = sub.add_parser("scaffold-verify", help="verify every scaffold congruence")
    _add_common(sv)

    fr = sub.add_parser("freeness", help="freeness reports over a range of ideal exponents")
    _add_common(fr)
    fr.add_argument("--h", type=str, required=True, help="ideal exponent or inclusive range a..b")

    ac = sub.add_parser("act", help="apply a dual element to a field element")
    _add_common(ac)
    ac.add_argument("z", type=str, help="dual element, e.g. z_1 or (T^2)*z_3")
    ac.add_argument("y", type=str, help="field element, e.g. x^3 or (T^-1)*x^2")

    ao = sub.add_parser("assoc-order", help="associated-order basis listing")
    _add_common(ao)
    ao.add_argument("--h", type=str, required=True, help="ideal exponent")
    ao.add_argument("--force", action="store_true", help="emit untrusted listing below tolerance")

    at = sub.add_parser("atlas", help="TSV freeness table over one full period of h")
    _add_common(at)
    for reporting in (sv, fr, ac, ao):  # atlas prints TSV only
        reporting.add_argument("--output", choices=("json", "tsv", "pretty"), default="json")

    return parser


def _merge_h_flag(argv: list[str]) -> list[str]:
    # argparse refuses option values that start with '-' unless written
    # as --h=VALUE; accept the spaced form for ranges like `--h -2..1`
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--h" and i + 1 < len(argv):
            out.append(f"--h={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args_list = _merge_h_flag(list(sys.argv[1:] if argv is None else argv))
    parser = _make_parser()
    try:
        args = parser.parse_args(args_list)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        cfg = _build_config(args)
        h_values = _parse_h_range(args.h) if getattr(args, "h", None) is not None else None
        if h_values is not None and len(h_values) * cfg.ext.degree > MAX_FREENESS_ENTRIES:
            raise ValueError(f"{len(h_values)} h values times p^n = {cfg.ext.degree} exceed {MAX_FREENESS_ENTRIES}")
        if os.environ.get("SCAFFOLD_LOG", "").upper() in ("DEBUG", "NOTSET"):
            print(f"DEBUG:hopfscaffold:dispatching {args.command}", file=sys.stderr)
        if args.command == "scaffold-verify":
            return cmd_scaffold_verify(cfg)
        if args.command == "freeness":
            return cmd_freeness(cfg, h_values)
        if args.command == "act":
            return cmd_act(cfg, args.z, args.y)
        if args.command == "assoc-order":
            if len(h_values) != 1:
                raise ValueError("assoc-order takes a single --h value")
            return cmd_assoc_order(cfg, h_values[0])
        if args.command == "atlas":
            return cmd_atlas(cfg)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def entry() -> None:  # console script hook
    """Exit with main's code, or 141 (128 + SIGPIPE) once the reader has closed stdout."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout is flushed again at exit: point it where that cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    entry()
