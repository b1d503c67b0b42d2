"""Command-line frontend.

Exit codes: 0 success / all claims pass; 1 at least one verification claim
failed; 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .netfreq import net_occurrences_bruteforce, net_occurrences_indexed
from .occurrences import Occurrence, bit_positions
from .onoc import prove_completeness
from .thue_morse import (
    ab_sets,
    factorization_basis_ok,
    factorization_boundary_ok,
    smallest_factorization,
    target_scans,
    validate_smallest_factorization,
)
from .fibonacci import theta_scans, theta_set
from .verifier import verify_fibonacci, verify_onoc_lemma_random, verify_thue_morse
from .words import fib_word, flip_word, read_word_file, tm_word


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netoccs",
        description="Net occurrences of repeated substrings in binary words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --json and --output, for every command but gen
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true")
    report.add_argument("--output", metavar="PATH")

    gen = sub.add_parser("gen", help="generate a word and print it")
    gen.add_argument("family", choices=["fib", "tm"])
    gen.add_argument("--order", type=int, required=True)
    gen.add_argument("--flip", action="store_true", help="exchange a and b letterwise")
    gen.add_argument("--output", metavar="PATH")

    net = sub.add_parser("netocc", parents=[report], help="list net occurrences of a text")
    source = net.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", metavar="FILE", help="read the word from a file")
    source.add_argument("--fib", type=int, metavar="N", help="use the order-N Fibonacci word")
    source.add_argument("--tm", type=int, metavar="N", help="use the order-N Thue-Morse word")
    net.add_argument("--engine", choices=["oracle", "indexed"], default="indexed")

    occ = sub.add_parser("occ-sets", parents=[report], help="recurrence position sets vs. direct scan")
    occ.add_argument("family", choices=["fib", "tm"])
    occ.add_argument("--order", type=int, required=True)
    occ.add_argument("--j", type=int, required=True)

    fac = sub.add_parser(
        "factorize", parents=[report], help="smallest factorization containing all target occurrences"
    )
    fac.add_argument("family", choices=["tm"])
    fac.add_argument("--order", type=int, required=True)
    fac.add_argument("--j", type=int, required=True)
    fac.add_argument("--kind", choices=["A", "B"], required=True)

    ver = sub.add_parser("verify", parents=[report], help="run a verification sweep")
    ver.add_argument("family", choices=["fib", "tm", "onoc"])
    ver.add_argument("--max-order", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--max-len", type=int, default=None)
    ver.add_argument("--exhaustive", action="store_true")

    chk = sub.add_parser("onoc-check", parents=[report], help="prove a claimed cover complete")
    chk.add_argument("--text", metavar="FILE", required=True)
    chk.add_argument("--cover", metavar="S1,E1;S2,E2;...", required=True)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_report(args, payload, text: str) -> None:
    """Emit ``payload`` as JSON under --json, else ``text``."""
    _emit(json.dumps(payload, indent=2) if args.json else text, args.output)


def _positions_line(label: str, positions) -> str:
    return f"{label}: {' '.join(str(p) for p in positions) or '-'}"


def _load_text(args) -> str:
    if args.text is not None:
        return read_word_file(args.text)
    if args.fib is not None:
        return fib_word(args.fib)
    return tm_word(args.tm)


def _cmd_gen(args) -> int:
    word = fib_word(args.order) if args.family == "fib" else tm_word(args.order)
    if args.flip:
        word = flip_word(word)
    _emit(word, args.output)
    return 0


def _cmd_netocc(args) -> int:
    text = _load_text(args)
    engine = net_occurrences_bruteforce if args.engine == "oracle" else net_occurrences_indexed
    records = engine(text)
    lines = [
        f"{r.occurrence.start}\t{r.occurrence.end}\t{r.substring}\t"
        f"{r.left or '-'}\t{r.right or '-'}"
        for r in records
    ]
    _emit_report(args, [r.to_json_dict() for r in records], "\n".join(lines) or "(no net occurrences)")
    return 0


def _cmd_occ_sets(args) -> int:
    i, j = args.order, args.j
    # One (label, recurrence, direct scan) row per position set: the θ set,
    # or the a and b sets of a Thue-Morse target and its flip.
    if args.family == "fib":
        rows = [("", theta_set(i, j), bit_positions(theta_scans(i, range(j, j + 1))[j]))]
    else:
        sets, scans = ab_sets(i, j), target_scans(i, range(j, j + 1))[j]
        rows = [(k, s, bit_positions(scan)) for k, s, scan in zip("ab", (sets.a_set, sets.b_set), scans)]
    equal = all(recurrence == oracle for _, recurrence, oracle in rows)
    payload = {"family": args.family, "order": i, "j": j}
    text_lines = []
    for label, recurrence, oracle in rows:
        entry = {"recurrence": list(recurrence), "oracle": list(oracle), "equal": recurrence == oracle}
        payload.update({label: entry} if label else entry)  # a lone unlabelled row is the payload itself
        prefix = label and f"{label} "
        text_lines.append(_positions_line(f"{prefix}recurrence", recurrence))
        text_lines.append(_positions_line(f"{prefix}oracle", oracle))
    payload["equal"] = equal
    text_lines.append(f"equal: {str(equal).lower()}")
    _emit_report(args, payload, "\n".join(text_lines))
    return 0 if equal else 1


def _factor_label(ref) -> str:
    if ref.kind == "lit":
        return f"lit:{ref.text}"
    return f"{ref.kind}({ref.order})"


def _cmd_factorize(args) -> int:
    fac = smallest_factorization(args.order, args.j, args.kind)
    factors = fac.factors
    if not factors:
        payload = {"kind": args.kind, "i": args.order, "j": args.j, "factors": [], "degenerate": True}
        text_out = "(empty factorization: the target never occurs)"
    else:
        payload = fac.to_json_dict()
        table = target_scans(args.order, range(args.j, min(args.j + 2, args.order)))
        payload["valid"] = validate_smallest_factorization(fac, table)
        payload["basis_ok"] = factorization_basis_ok(fac, table)
        payload["boundary_ok"] = factorization_boundary_ok(fac)
        flags = " ".join(
            f"{k}={str(payload[k]).lower()}" for k in ("valid", "basis_ok", "boundary_ok")
        )
        text_out = " ".join(_factor_label(r) for r in factors) + "\n" + flags
    _emit_report(args, payload, text_out)
    return 0


def _report_lines(report) -> list[str]:
    lines = []
    for name, claim in report.claims.items():
        mark = "PASS" if claim.passed else "FAIL"
        suffix = "" if claim.passed or claim.witness is None else f"  witness={claim.witness!r}"
        lines.append(f"{mark} {name}{suffix}")
    total = len(report.claims)
    good = sum(1 for c in report.claims.values() if c.passed)
    lines.append(f"{good}/{total} claims passed in {report.wall_time:.2f}s")
    return lines


def _cmd_verify(args) -> int:
    if args.family in ("fib", "tm"):
        for flag, name in ((args.seed, "--seed"), (args.samples, "--samples"), (args.max_len, "--max-len")):
            if flag is not None:
                raise ValueError(f"verify {args.family}: {name} applies to 'verify onoc' only")
        if args.exhaustive:
            raise ValueError(f"verify {args.family}: --exhaustive applies to 'verify onoc' only")
        if args.max_order is None:
            raise ValueError(f"verify {args.family}: --max-order is required")
        report = verify_fibonacci(args.max_order) if args.family == "fib" else verify_thue_morse(args.max_order)
        _emit_report(args, report.to_json_dict(), "\n".join(_report_lines(report)))
        return 0 if report.all_passed() else 1

    if args.max_order is not None:
        raise ValueError("verify onoc: --max-order applies to 'verify fib/tm' only")
    if args.exhaustive:
        for flag, name in ((args.seed, "--seed"), (args.samples, "--samples")):
            if flag is not None:
                raise ValueError(f"verify onoc: {name} applies to sampled runs, not --exhaustive")
    seed = 42 if args.seed is None else args.seed
    samples = 1000 if args.samples is None else args.samples
    max_len = args.max_len if args.max_len is not None else (14 if args.exhaustive else 24)
    prop = verify_onoc_lemma_random(seed, samples, max_len, exhaustive=args.exhaustive)
    text = (
        f"samples={prop.samples} tested={prop.tested()} skipped={prop.skipped} "
        f"violations={len(prop.violations)} in {prop.wall_time:.2f}s"
    )
    _emit_report(args, prop.to_json_dict(), text)
    return 0 if prop.ok() else 1


def _parse_cover(raw: str) -> list[Occurrence]:
    cover = []
    for chunk in raw.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"cover syntax: expected 's,e' pairs joined by ';', got {chunk!r}")
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"cover syntax: non-integer bound in {chunk!r}") from None
        cover.append(Occurrence(start, end))
    return cover


def _cmd_onoc_check(args) -> int:
    text = read_word_file(args.text)
    cover = _parse_cover(args.cover)
    report = prove_completeness(text, cover, [rec.occurrence for rec in net_occurrences_bruteforce(text)])
    payload = report.to_json_dict()
    payload["complete"] = report.complete()
    lines = [
        f"cover_valid: {str(report.cover_valid).lower()}",
        _positions_line("bnsos", [f"{o.start},{o.end}" for o in report.bnsos]),
        _positions_line("offending_supers", [f"{o.start},{o.end}" for o in report.offending_supers]),
        f"oracle_agrees: {str(report.oracle_agrees).lower()}",
        f"complete: {str(report.complete()).lower()}",
    ]
    _emit_report(args, payload, "\n".join(lines))
    return 0 if report.complete() else 1


_HANDLERS = {
    "gen": _cmd_gen,
    "netocc": _cmd_netocc,
    "occ-sets": _cmd_occ_sets,
    "factorize": _cmd_factorize,
    "verify": _cmd_verify,
    "onoc-check": _cmd_onoc_check,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # argparse reads "--opt=--" as an empty list, which no option here takes.
    empty = next((dest for dest, value in vars(args).items() if value == []), None)
    if empty is not None:
        print(f"error: argument --{empty.replace('_', '-')}: expected one value, got none", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory running '{args.command}'; try smaller inputs", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
