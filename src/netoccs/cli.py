"""Command-line frontend.

Exit codes: 0 success / all claims pass; 1 at least one verification claim
failed; 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .netfreq import net_occurrences_bruteforce, net_occurrences_indexed
from .occurrences import Occurrence, find_occurrences
from .onoc import prove_completeness
from .thue_morse import (
    ab_sets,
    factorization_basis_ok,
    factorization_boundary_ok,
    smallest_factorization,
    target_scan,
    validate_smallest_factorization,
)
from .fibonacci import theta_set
from .verifier import verify_fibonacci, verify_onoc_lemma_random, verify_thue_morse
from .words import fib_word, flip_word, read_word_file, tm_word


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netoccs",
        description="Net occurrences of repeated substrings in binary words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a word and print it")
    gen.add_argument("family", choices=["fib", "tm"])
    gen.add_argument("--order", type=int, required=True)
    gen.add_argument("--flip", action="store_true", help="exchange a and b letterwise")
    gen.add_argument("--output", metavar="PATH")

    net = sub.add_parser("netocc", help="list net occurrences of a text")
    source = net.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", metavar="FILE", help="read the word from a file")
    source.add_argument("--fib", type=int, metavar="N", help="use the order-N Fibonacci word")
    source.add_argument("--tm", type=int, metavar="N", help="use the order-N Thue-Morse word")
    net.add_argument("--engine", choices=["oracle", "indexed"], default="indexed")
    net.add_argument("--json", action="store_true")
    net.add_argument("--output", metavar="PATH")

    occ = sub.add_parser("occ-sets", help="recurrence position sets vs. direct scan")
    occ.add_argument("family", choices=["fib", "tm"])
    occ.add_argument("--order", type=int, required=True)
    occ.add_argument("--j", type=int, required=True)
    occ.add_argument("--json", action="store_true")
    occ.add_argument("--output", metavar="PATH")

    fac = sub.add_parser("factorize", help="smallest factorization containing all target occurrences")
    fac.add_argument("family", choices=["tm"])
    fac.add_argument("--order", type=int, required=True)
    fac.add_argument("--j", type=int, required=True)
    fac.add_argument("--kind", choices=["A", "B"], required=True)
    fac.add_argument("--json", action="store_true")
    fac.add_argument("--output", metavar="PATH")

    ver = sub.add_parser("verify", help="run a verification sweep")
    ver.add_argument("family", choices=["fib", "tm", "onoc"])
    ver.add_argument("--max-order", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--max-len", type=int, default=None)
    ver.add_argument("--exhaustive", action="store_true")
    ver.add_argument("--json", action="store_true")
    ver.add_argument("--output", metavar="PATH")

    chk = sub.add_parser("onoc-check", help="prove a claimed cover complete")
    chk.add_argument("--text", metavar="FILE", required=True)
    chk.add_argument("--cover", metavar="S1,E1;S2,E2;...", required=True)
    chk.add_argument("--json", action="store_true")
    chk.add_argument("--output", metavar="PATH")

    return parser


def _emit(payload: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


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
    if args.json:
        _emit(json.dumps([r.to_json_dict() for r in records], indent=2), args.output)
    else:
        lines = [
            f"{r.occurrence.start}\t{r.occurrence.end}\t{r.substring}\t"
            f"{r.left or '-'}\t{r.right or '-'}"
            for r in records
        ]
        _emit("\n".join(lines) if lines else "(no net occurrences)", args.output)
    return 0


def _cmd_occ_sets(args) -> int:
    i, j = args.order, args.j
    if args.family == "fib":
        recurrence = theta_set(i, j)
        oracle = find_occurrences(fib_word(i - j), fib_word(i))
        equal = recurrence == oracle
        payload = {
            "family": "fib",
            "order": i,
            "j": j,
            "recurrence": list(recurrence),
            "oracle": list(oracle),
            "equal": equal,
        }
        text_lines = [
            _positions_line("recurrence", recurrence),
            _positions_line("oracle", oracle),
            f"equal: {str(equal).lower()}",
        ]
    else:
        sets = ab_sets(i, j)
        word = tm_word(i)
        target = tm_word(i - j)
        oracle_a = find_occurrences(target, word)
        oracle_b = find_occurrences(flip_word(target), word)
        equal = sets.a_set == oracle_a and sets.b_set == oracle_b
        payload = {
            "family": "tm",
            "order": i,
            "j": j,
            "a": {"recurrence": list(sets.a_set), "oracle": list(oracle_a), "equal": sets.a_set == oracle_a},
            "b": {"recurrence": list(sets.b_set), "oracle": list(oracle_b), "equal": sets.b_set == oracle_b},
            "equal": equal,
        }
        text_lines = [
            _positions_line("a recurrence", sets.a_set),
            _positions_line("a oracle", oracle_a),
            _positions_line("b recurrence", sets.b_set),
            _positions_line("b oracle", oracle_b),
            f"equal: {str(equal).lower()}",
        ]
    _emit(json.dumps(payload, indent=2) if args.json else "\n".join(text_lines), args.output)
    return 0 if payload["equal"] else 1


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
        scan = target_scan(args.order, args.j, args.kind)
        payload["valid"] = validate_smallest_factorization(args.order, args.j, args.kind, fac, scan)
        payload["basis_ok"] = factorization_basis_ok(fac, scan)
        payload["boundary_ok"] = factorization_boundary_ok(fac)
        flags = " ".join(
            f"{k}={str(payload[k]).lower()}" for k in ("valid", "basis_ok", "boundary_ok")
        )
        text_out = " ".join(_factor_label(r) for r in factors) + "\n" + flags
    _emit(json.dumps(payload, indent=2) if args.json else text_out, args.output)
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
        out = json.dumps(report.to_json_dict(), indent=2) if args.json else "\n".join(_report_lines(report))
        _emit(out, args.output)
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
    if args.json:
        out = json.dumps(prop.to_json_dict(), indent=2)
    else:
        out = (
            f"samples={prop.samples} tested={prop.tested()} skipped={prop.skipped} "
            f"violations={len(prop.violations)} in {prop.wall_time:.2f}s"
        )
    _emit(out, args.output)
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
    report = prove_completeness(text, cover)
    if args.json:
        payload = report.to_json_dict()
        payload["complete"] = report.complete()
        out = json.dumps(payload, indent=2)
    else:
        out = "\n".join(
            [
                f"cover_valid: {str(report.cover_valid).lower()}",
                _positions_line("bnsos", [f"{o.start},{o.end}" for o in report.bnsos]),
                _positions_line(
                    "offending_supers", [f"{o.start},{o.end}" for o in report.offending_supers]
                ),
                f"oracle_agrees: {str(report.oracle_agrees).lower()}",
                f"complete: {str(report.complete()).lower()}",
            ]
        )
    _emit(out, args.output)
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
