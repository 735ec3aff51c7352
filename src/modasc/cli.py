"""Command line front end.

Subcommands
    generate    stream words of a class, one per line
    count       count words, a single length or a whole range
    table       replay the numeric tables against the oracle
    verify      run the named check suites
    export      write a count sequence as b-file, json or csv
    experiment  side-by-side counts for open comparisons, report only

Stdout is byte-deterministic for a given command line; timing goes to
stderr.  Exit status: 0 success, 1 a comparison or check failed,
2 usage error, 3 the run touched the global random state.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import checks, counting, patterns, words

DEFAULT_CAP = 10

EXPERIMENTS = ("modasc122-vs-211", "modasc211-vs-1223")


def _env_cap() -> int:
    raw = os.environ.get("FP_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise _usage_error(f"FP_CAP={raw!r} is not an integer")
    if cap < 1:
        raise _usage_error(f"FP_CAP must be positive, got {cap}")
    return cap


def _usage_error(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _check_cap(n: int, cap: int, what: str = "length") -> None:
    if n > cap:
        raise _usage_error(
            f"{what} {n} exceeds the enumeration cap {cap}; "
            "raise --cap (or FP_CAP) if you really want this"
        )


def _parse_avoid(text: str) -> tuple[words.Word, ...]:
    try:
        return tuple(patterns.parse_pattern(part) for part in text.split(","))
    except ValueError as exc:
        raise _usage_error(str(exc))


def _parse_label(label: str) -> tuple[str, str]:
    head, sep, cls = label.rpartition("-")
    if not sep or cls not in ("modasc", "prim"):
        raise _usage_error(
            f"label {label!r} is not of the form PATTERN-modasc or PATTERN-prim"
        )
    try:
        patterns.parse_pattern(head)
    except ValueError as exc:
        raise _usage_error(str(exc))
    return head, cls


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    _check_cap(args.n, args.cap)
    if args.cls == "cayley":
        if args.avoid:
            raise _usage_error("--avoid needs --class modasc or prim")
        _check_cap(args.n, words.ENDOFUNCTION_CAP, "cayley length")
        out = sorted(words.iter_cayley(args.n))
    elif args.avoid:
        out = patterns.avoiders(args.n, _parse_avoid(args.avoid), args.cls)
    elif args.cls == "prim":
        out = words.generate_prim(args.n)
    else:
        out = words.generate_modasc(args.n)
    for w in out:
        print(words.format_word(w))
    return 0


def cmd_count(args) -> int:
    if (args.n is None) == (args.upto is None):
        raise _usage_error("give exactly one of --n or --upto")
    top = args.n if args.n is not None else args.upto
    _check_cap(top, args.cap)

    def one(n: int) -> int:
        if args.cls == "cayley":
            _check_cap(n, words.ENDOFUNCTION_CAP, "cayley length")
            return sum(1 for _ in words.iter_cayley(n))
        if args.avoid:
            return patterns.count_avoiders(n, _parse_avoid(args.avoid), args.cls)
        gen = words.generate_prim if args.cls == "prim" else words.generate_modasc
        return len(gen(n))

    if args.cls == "cayley" and args.avoid:
        raise _usage_error("--avoid needs --class modasc or prim")
    if args.n is not None:
        print(one(args.n))
    else:
        for n in range(top + 1):
            print(n, one(n))
    return 0


def _print_row(kind: str, text: str, cls: str, verdict: str, detail: str) -> None:
    print(f"[{kind}] {text} {cls} {verdict} {detail}")


def cmd_table(args) -> int:
    _check_cap(args.n, args.cap)
    n_max = args.n
    failures = 0
    comparisons = 0

    if "families" in args.which:
        for row in counting.TABLE1:
            joined = ",".join(row.patterns)
            for cls, family in (("modasc", row.modasc), ("prim", row.prim)):
                tables = [
                    counting.oracle_table(p, cls, n_max) for p in row.patterns
                ]
                vals = [tuple(c for _, c in t.values) for t in tables]
                base = vals[0]
                agree = all(v == base for v in vals[1:])
                shown = ",".join(str(c) for c in base)
                if family is None:
                    verdict = "data" if agree else "FAIL"
                    _print_row("families", joined, cls, verdict, shown)
                    comparisons += len(vals) - 1
                    failures += 0 if agree else 1
                    continue
                formula = tuple(
                    counting.closed_counts(row.patterns[0], cls, n)
                    for n in range(1, n_max + 1)
                )
                comparisons += len(vals)
                if agree and base == formula:
                    _print_row("families", joined, cls, "ok", shown)
                else:
                    failures += 1
                    _print_row(
                        "families",
                        joined,
                        cls,
                        "FAIL",
                        f"oracle {shown} formula {','.join(map(str, formula))}",
                    )

    if "golden" in args.which:
        for (text, cls), pinned in sorted(counting.TABLE2.items()):
            depth = min(len(pinned) if pinned else n_max, args.cap)
            table = counting.oracle_table(text, cls, depth)
            got = tuple(c for _, c in table.values)
            shown = ",".join(map(str, got))
            if pinned is None:
                _print_row("golden", text, cls, "data", shown)
                continue
            comparisons += 1
            if got == pinned[:depth]:
                _print_row("golden", text, cls, "ok", shown)
            else:
                failures += 1
                _print_row(
                    "golden",
                    text,
                    cls,
                    "FAIL",
                    f"oracle {shown} pinned {','.join(map(str, pinned[:depth]))}",
                )
        for (text, cls), (offset, quoted) in sorted(
            counting.PRINTED_SEQUENCES.items()
        ):
            comparisons += 1
            bad = None
            for i, v in enumerate(quoted):
                n = offset + i
                if counting.closed_counts(text, cls, n) != v:
                    bad = f"formula differs at n={n}"
                    break
                if n <= args.cap and n >= 1:
                    pat = patterns.parse_pattern(text)
                    if patterns.count_avoiders(n, (pat,), cls) != v:
                        bad = f"oracle differs at n={n}"
                        break
            shown = ",".join(map(str, quoted))
            if bad is None:
                _print_row("quoted", text, cls, "ok", shown)
            else:
                failures += 1
                _print_row("quoted", text, cls, "FAIL", f"{bad}; quoted {shown}")

    print(f"table: {comparisons} comparisons, {failures} failed")
    return 1 if failures else 0


def cmd_verify(args) -> int:
    _check_cap(args.n, args.cap)
    depth = args.n
    caps = checks.Caps(
        words=depth,
        paths=min(depth + 3, 12),
        partitions=min(depth + 3, 12),
    )
    started = time.monotonic()
    results = checks.run_suite(args.suite, caps)
    elapsed = time.monotonic() - started
    width = max(len(r.tag) for r in results)
    for r in results:
        if r.passed:
            print(f"ok   {r.tag:<{width}}  {r.description}")
        else:
            print(f"FAIL {r.tag:<{width}}  {r.description}: {r.witness}")
    passed = sum(r.passed for r in results)
    print(
        f"verify {args.suite}: {passed}/{len(results)} checks passed "
        f"(words<={caps.words}, paths<={caps.paths}, partitions<={caps.partitions})"
    )
    print(f"elapsed {elapsed:.1f}s", file=sys.stderr)
    return 0 if passed == len(results) else 1


def cmd_export(args) -> int:
    text, cls = _parse_label(args.label)
    source = args.source
    if source == "auto":
        source = "formula" if counting.has_closed_form(text, cls) else "oracle"
    if source == "formula":
        if not counting.has_closed_form(text, cls):
            raise _usage_error(f"no closed form is known for {args.label}")
        table = counting.formula_table(text, cls, args.n)
    else:
        _check_cap(args.n, args.cap)
        table = counting.oracle_table(text, cls, args.n)
    if args.format == "bfile":
        payload = table.to_bfile()
    elif args.format == "json":
        payload = json.dumps(table.to_json_obj(), indent=2) + "\n"
    else:
        payload = table.to_csv()
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(payload)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_experiment(args) -> int:
    n_max = min(args.order, args.cap)
    if args.order > args.cap:
        print(f"note: order clamped to the cap {args.cap}", file=sys.stderr)

    def counts(text: str, cls: str = "modasc") -> list[int]:
        pat = patterns.parse_pattern(text)
        return [
            patterns.count_avoiders(n, (pat,), cls) for n in range(n_max + 1)
        ]

    if args.check == "modasc122-vs-211":
        # Tries the guessed relation a122 = (1-t) * a211 coefficientwise,
        # and the partial-sum variant a122(n) = sum of a211(0..n-1).
        a122, a211 = counts("122"), counts("211")
        print("n modasc(122) modasc(211) a211(n)-a211(n-1) partial_sum_a211")
        product_holds = sums_hold = True
        running = 0
        for n in range(n_max + 1):
            delta = a211[n] - (a211[n - 1] if n else 0)
            psum = running if n else 1
            running += a211[n]
            product_holds = product_holds and a122[n] == delta
            sums_hold = sums_hold and a122[n] == psum
            print(f"{n} {a122[n]} {a211[n]} {delta} {psum}")
        print(
            "experiment modasc122-vs-211 on n<="
            f"{n_max}: a122(n) = a211(n) - a211(n-1) "
            f"{'holds' if product_holds else 'fails'}; "
            "a122(n) = sum of a211(k) for k<n "
            f"{'holds' if sums_hold else 'fails'}"
        )
    else:
        rows = {
            (text, cls): counts(text, cls)
            for text in ("211", "1223")
            for cls in ("modasc", "prim")
        }
        print("n modasc(211) modasc(1223) prim(211) prim(1223)")
        agree = True
        for n in range(n_max + 1):
            vals = [
                rows[("211", "modasc")][n],
                rows[("1223", "modasc")][n],
                rows[("211", "prim")][n],
                rows[("1223", "prim")][n],
            ]
            agree = agree and vals[0] == vals[1] and vals[2] == vals[3]
            print(n, *vals)
        verdict = "agree" if agree else "differ"
        print(
            f"experiment modasc211-vs-1223: the paired counts {verdict} "
            f"on n<={n_max}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modasc",
        description="Exact enumeration and verification for pattern "
        "avoidance on modified ascent sequences.",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        help=f"enumeration cap on word length (default FP_CAP or {DEFAULT_CAP})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="reserved for parallel runs; execution is sequential",
    )
    parser.add_argument(
        "--seedless",
        action="store_true",
        help="fail if the run perturbs the global random state",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="stream words of a class, one per line")
    p.add_argument("--class", dest="cls", default="modasc",
                   choices=("modasc", "prim", "cayley"))
    p.add_argument("--n", type=int, required=True, help="word length")
    p.add_argument("--avoid", help="comma-separated patterns, e.g. 122,212")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("count", help="count words of a class")
    p.add_argument("--class", dest="cls", default="modasc",
                   choices=("modasc", "prim", "cayley"))
    p.add_argument("--n", type=int, help="a single length")
    p.add_argument("--upto", type=int, help="print 'n count' for 0..N")
    p.add_argument("--avoid", help="comma-separated patterns")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("table", help="replay the numeric tables against the oracle")
    p.add_argument("--which", nargs="+", default=["families", "golden"],
                   choices=("families", "golden"))
    p.add_argument("--n", type=int, default=9, help="lengths 1..N for family rows")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", help="run the named check suites")
    p.add_argument("--suite", default="all", choices=sorted(checks.SUITES))
    p.add_argument("--n", type=int, default=8,
                   help="word-length depth; paths and partitions scale with it")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export", help="write a count sequence to a file or stdout")
    p.add_argument("--label", required=True, help="e.g. 312-modasc or 221-prim")
    p.add_argument("--n", type=int, required=True, help="lengths 1..N")
    p.add_argument("--format", default="bfile", choices=("bfile", "json", "csv"))
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.add_argument("--source", default="auto",
                   choices=("auto", "formula", "oracle"))
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("experiment", help="report-only comparisons of open cases")
    p.add_argument("--check", required=True, choices=EXPERIMENTS)
    p.add_argument("--order", type=int, default=9, help="lengths 0..N, cap-clamped")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.cap = _env_cap() if args.cap is None else args.cap
        if args.cap < 1:
            raise _usage_error("--cap must be positive")
        if args.jobs < 1:
            raise _usage_error("--jobs must be positive")
        state = random.getstate() if args.seedless else None
        code = args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if state is not None and random.getstate() != state:
        print("error: the run perturbed the global random state", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
