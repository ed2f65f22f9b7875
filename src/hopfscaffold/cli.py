"""Command-line interface for scaffold verification, actions and freeness sweeps.

Exit codes are a stable contract: 0 success / all checks passed,
1 verification failure, 2 usage or validation error, 3 tolerance
hypothesis unmet, 141 stdout closed early by its reader (128 + SIGPIPE,
as `seq | head` gives).  JSON output is deterministic: keys sorted, check
records sorted, no timestamps.  With SCAFFOLD_LOG=DEBUG or NOTSET (any
case), stderr gets the line `DEBUG:hopfscaffold:dispatching <command>`;
any other value writes nothing.

Each command imports the modules it runs when it runs: at import this
module loads only what the parameter checks need (base_arith and
field_tower), so a job compiles no module its command skips.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Iterable, Optional, Sequence

from .base_arith import LaurentPoly, is_prime
from .field_tower import ExtensionParams, HopfParams, l_valuation, lelement_from_text, lelement_to_text, tolerance

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


def _check_degree(p: int, n: int) -> None:
    """Refuse n < 2, p < 2, p^n > MAX_DEGREE or a composite p, multiplying p^n out only until it passes the cap."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if p < 2:
        raise ValueError(f"p = {p} is not prime")
    degree = 1
    for _ in range(n):
        degree *= p
        if degree > MAX_DEGREE:
            raise ValueError(f"p^n = {p}^{n} exceeds {MAX_DEGREE}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _build_config(args: argparse.Namespace) -> tuple[ExtensionParams, HopfParams]:
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
    return ext, hopf


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


def _emit_tsv(header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    """Print the header, then each row as it comes: fields tab-joined, None written empty, a bool 0 or 1."""
    print("\t".join(header))
    for row in rows:
        print("\t".join("" if v is None else str(int(v) if isinstance(v, bool) else v) for v in row))


# -- subcommands --------------------------------------------------------------


def cmd_scaffold_verify(ext: ExtensionParams, hopf: HopfParams, args: argparse.Namespace) -> int:
    from .scaffold import STATUS_OK, scaffold_context, verify_scaffold

    ctx = scaffold_context(ext, hopf)
    report = verify_scaffold(ctx)
    if args.output == "json":
        _emit_json(report.to_json_dict())
    elif args.output == "tsv":
        _emit_tsv(("s", "j", "digit", "unit", "passed"), ((c.s, c.j, c.digit, c.digit or None, c.passed) for c in report.checks))
    else:
        head = (
            f"p={ext.p} n={ext.n} r={hopf.r} b={ext.b} "
            f"f={hopf.f} tolerance={report.ctx.tolerance} status={report.status}"
        )
        print(head)
        for c in report.checks:
            verdict = "ok" if c.passed else "FAIL"
            print(f"  s={c.s} j={c.j} digit={c.digit} unit={c.digit or '-'} {verdict}")
        print("all passed" if report.all_passed else "FAILURES PRESENT" if report.checks else "no check ran")
    if report.status != STATUS_OK:
        return EXIT_HYPOTHESIS
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def cmd_freeness(ext: ExtensionParams, hopf: HopfParams, args: argparse.Namespace) -> int:
    from .module_structure import is_free

    reports = (is_free(h, ext) for h in args.h)
    if args.output == "json":
        for report in reports:
            _emit_json_line(report.to_json_dict(hopf))
    elif args.output == "tsv":
        rows = (
            (r.h.h_raw, r.h.h_norm, r.h.m, r.free, r.witness_j, r.generator_count,
             ",".join(map(str, r.d_table)), ",".join(map(str, r.w_table)))
            for r in reports
        )
        _emit_tsv(("h_raw", "h_norm", "m", "free", "witness_j", "generator_count", "d", "w"), rows)
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


def cmd_act(ext: ExtensionParams, hopf: HopfParams, args: argparse.Namespace) -> int:
    from .action import act
    from .hopf_dual import dual_from_text

    z = dual_from_text(args.z, hopf)
    y = lelement_from_text(args.y, ext)
    result = act(z, y, ext, hopf)
    val = l_valuation(result, ext)
    val_out: Optional[int] = None if result.is_zero() else int(val)
    text = lelement_to_text(result)
    if args.output == "json":
        _emit_json({"result": text, "v_L": val_out})
    elif args.output == "tsv":
        _emit_tsv(("result", "v_L"), [(text, val_out)])
    else:
        print(text)
        print(f"v_L = {'+inf' if val_out is None else val_out}")
    return EXIT_OK


def cmd_assoc_order(ext: ExtensionParams, hopf: HopfParams, args: argparse.Namespace) -> int:
    from .module_structure import InsufficientToleranceError, assoc_order_basis

    if len(args.h) != 1:
        raise ValueError("assoc-order takes a single --h value")
    try:
        basis = assoc_order_basis(args.h[0], ext, hopf, force=args.force)
    except InsufficientToleranceError as exc:
        print(f"error: {exc.reason}; pass --force to emit an untrusted listing", file=sys.stderr)
        return EXIT_HYPOTHESIS
    if args.output == "json":
        _emit_json(basis.to_json_dict())
    elif args.output == "tsv":
        _emit_tsv(("digits", "shift"), ((",".join(map(str, e.digits)), e.shift) for e in basis.entries))
    else:
        idx = basis.h
        trust = "trusted" if basis.trusted else "UNTRUSTED (below licensing tolerance)"
        print(f"associated order of h = {idx.h_raw} (norm {idx.h_norm}), {trust}")
        for entry in basis.entries:
            print(f"  digits = {tuple(entry.digits)}  shift = {entry.shift}")
    return EXIT_OK


def cmd_atlas(ext: ExtensionParams, hopf: HopfParams, args: argparse.Namespace) -> int:
    from .module_structure import is_free

    # one full period of ideal classes, in window order
    reports = (is_free(h, ext) for h in range(ext.b - ext.degree + 1, ext.b + 1))
    _emit_tsv(("h", "free", "generator_count", "witness_j"), ((r.h.h_norm, r.free, r.generator_count, r.witness_j) for r in reports))
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
    sv.set_defaults(run=cmd_scaffold_verify)

    fr = sub.add_parser("freeness", help="freeness reports over a range of ideal exponents")
    _add_common(fr)
    fr.add_argument("--h", type=str, required=True, help="ideal exponent or inclusive range a..b")
    fr.set_defaults(run=cmd_freeness)

    ac = sub.add_parser("act", help="apply a dual element to a field element")
    _add_common(ac)
    ac.add_argument("z", type=str, help="dual element, e.g. z_1 or (T^2)*z_3")
    ac.add_argument("y", type=str, help="field element, e.g. x^3 or (T^-1)*x^2")
    ac.set_defaults(run=cmd_act)

    ao = sub.add_parser("assoc-order", help="associated-order basis listing")
    _add_common(ao)
    ao.add_argument("--h", type=str, required=True, help="ideal exponent")
    ao.add_argument("--force", action="store_true", help="emit untrusted listing below tolerance")
    ao.set_defaults(run=cmd_assoc_order)

    at = sub.add_parser("atlas", help="TSV freeness table over one full period of h")
    _add_common(at)
    at.set_defaults(run=cmd_atlas)
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
        ext, hopf = _build_config(args)
        if getattr(args, "h", None) is not None:
            args.h = _parse_h_range(args.h)
            if len(args.h) * ext.degree > MAX_FREENESS_ENTRIES:
                raise ValueError(f"{len(args.h)} h values times p^n = {ext.degree} exceed {MAX_FREENESS_ENTRIES}")
        if os.environ.get("SCAFFOLD_LOG", "").upper() in ("DEBUG", "NOTSET"):
            print(f"DEBUG:hopfscaffold:dispatching {args.command}", file=sys.stderr)
        return args.run(ext, hopf, args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


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
