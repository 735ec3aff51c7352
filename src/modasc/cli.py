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
2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

# `table`, `verify`, `export` and `experiment` import the rest of the
# package when they run, so `count` and `generate` load only these two.
from . import patterns, words

DEFAULT_CAP = 10

#: Words written by `generate` in one `sys.stdout.write`.  A chunk of
#: one-digit letters (1..9) is turned into text by `bytes.translate`,
#: any other by `%d` formatting (`_write_words`).
WRITE_CHUNK = 4096

# The letters 1..9 and their ASCII digits, for `_write_words`.
_ONE_DIGIT = bytes(range(1, 10))
_DIGITS = bytes.maketrans(_ONE_DIGIT, b"123456789")

EXPERIMENTS = ("modasc122-vs-211", "modasc211-vs-1223")

#: The names of `checks.SUITES`, spelled out so that building the parser
#: does not import `checks`.
SUITE_NAMES = ("all", "bijections", "equivalences", "identities", "transport")


def _usage_error(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _check_length(n: int, what: str = "length") -> None:
    if n < 0:
        raise _usage_error(f"{what} {n} is negative")


def _check_cap(n: int, cap: int, what: str = "length") -> None:
    _check_length(n, what)
    if n > cap:
        raise _usage_error(
            f"{what} {n} exceeds the enumeration cap {cap}; "
            "raise --cap if you really want this"
        )


def _check_cayley(n: int, avoid: str | None) -> None:
    if avoid is not None:
        raise _usage_error("--avoid needs --class modasc or prim")
    if n > words.ENDOFUNCTION_CAP:
        raise _usage_error(f"cayley length {n} exceeds the fixed limit {words.ENDOFUNCTION_CAP}")


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
    if args.cls == "cayley":
        _check_cayley(args.n, args.avoid)
    _check_cap(args.n, args.cap)
    if args.cls == "cayley":
        out = sorted(map(bytes, words.iter_cayley(args.n)))
    else:
        try:
            if args.avoid is not None:
                pats = _parse_avoid(args.avoid)
                out = patterns.sorted_avoider_keys(args.n, pats, args.cls)
            else:
                out = words.sorted_keys(args.n, args.cls == "prim")
        except ValueError as exc:
            raise _usage_error(str(exc))
    _write_words(out, args.n)
    return 0


def _write_words(out: list, n: int) -> None:
    """Print the words of length n in `out` (byte strings, one byte per
    letter), one per line in `format_word`'s form, WRITE_CHUNK words to
    a write.  Consumes `out`, which is empty on return: it is reversed
    once and each chunk is cut off its end, so a chunk's words are freed
    once written and the list shrinks as it goes.

    A chunk whose letters are all 1..9 is joined, mapped to ASCII digits
    by one `bytes.translate` and interleaved with the separators (n - 1
    spaces and a newline per word); any other chunk, and every chunk at
    n = 0, is formatted letter by letter by `%d`.
    """
    line = " ".join(["%d"] * n) + "\n"
    gaps = b" " * (n - 1) + b"\n"
    out.reverse()
    while out:
        chunk = out[-WRITE_CHUNK:]
        del out[-WRITE_CHUNK:]
        chunk.reverse()
        if n:
            joined = b"".join(chunk)
            if not joined.translate(None, _ONE_DIGIT):
                text = bytearray(2 * len(joined))
                text[0::2] = joined.translate(_DIGITS)
                text[1::2] = gaps * len(chunk)
                sys.stdout.write(text.decode("ascii"))
                continue
        letters = tuple(itertools.chain.from_iterable(chunk))
        sys.stdout.write((line * len(chunk)) % letters)


def cmd_count(args) -> int:
    if (args.n is None) == (args.upto is None):
        raise _usage_error("give exactly one of --n or --upto")
    top = args.n if args.n is not None else args.upto
    if args.cls == "cayley":
        _check_cayley(top, args.avoid)
    _check_cap(top, args.cap)
    pats = _parse_avoid(args.avoid) if args.avoid is not None else None

    def one(n: int) -> int:
        if args.cls == "cayley":
            return sum(1 for _ in words.iter_cayley(n))
        if pats:
            return patterns.count_avoiders(n, pats, args.cls)
        return words.count_level(n, args.cls == "prim")

    try:
        if args.n is not None:
            print(one(args.n))
        elif pats:
            for n, c in enumerate(patterns.count_avoiders_upto(top, pats, args.cls)):
                print(n, c)
        else:
            for n in range(top + 1):
                print(n, one(n))
    except ValueError as exc:
        raise _usage_error(str(exc))
    return 0


def cmd_table(args) -> int:
    from . import checks

    _check_cap(args.n, args.cap)
    kinds = set(args.which) | ({"quoted"} if "golden" in args.which else set())
    comparisons = failures = 0
    for row in checks.table_rows(kinds, args.n, args.cap):
        print(f"[{row.kind}] {row.patterns} {row.cls} {row.verdict} {row.detail}")
        comparisons += row.comparisons
        failures += row.verdict == "FAIL"
    print(f"table: {comparisons} comparisons, {failures} failed")
    return 1 if failures else 0


def cmd_verify(args) -> int:
    from . import checks

    _check_cap(args.n, args.cap)
    caps = checks.Caps(args.n)
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
        f"(words<={caps.words}, paths<={caps.paths}, partitions<={caps.paths})"
    )
    for r in results:
        print(f"time {r.tag} {r.seconds:.3f}s", file=sys.stderr)
    print(f"elapsed {elapsed:.1f}s", file=sys.stderr)
    return 0 if passed == len(results) else 1


def cmd_export(args) -> int:
    import json

    from . import counting

    text, cls = _parse_label(args.label)
    _check_length(args.n)
    closed = counting.has_closed_form(text, cls)
    if args.source == "formula" and not closed:
        raise _usage_error(f"no closed form is known for {args.label}")
    if args.source == "oracle" or not closed:
        _check_cap(args.n, args.cap)
        counts = counting.oracle_counts(text, cls, args.n)[1:]
    else:
        counts = counting.formula_counts(text, cls, args.n)[1:]
    if args.format == "bfile":
        payload = "".join(f"{n} {c}\n" for n, c in enumerate(counts, 1))
    elif args.format == "json":
        label = f"{counting._pattern_text(text)}-{cls}"
        obj = {"label": label, "offset": 1 if counts else None, "values": counts}
        payload = json.dumps(obj, indent=2) + "\n"
    else:
        payload = "n,count\n" + "".join(f"{n},{c}\n" for n, c in enumerate(counts, 1))
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(payload)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_experiment(args) -> int:
    from . import counting

    _check_cap(args.order, args.cap, "order")
    n_max = args.order
    if args.check == "modasc122-vs-211":
        # Tries the guessed relation a122 = (1-t) * a211 coefficientwise,
        # and the partial-sum variant a122(n) = sum of a211(0..n-1).
        a122, a211 = (counting.oracle_counts(text, "modasc", n_max) for text in ("122", "211"))
        deltas = [a - b for a, b in zip(a211, [0] + a211)]
        # the empty sum at n = 0 is taken as 1, the count of the empty word
        psums = [1] + list(itertools.accumulate(a211))[:-1]
        print("n modasc(122) modasc(211) a211(n)-a211(n-1) partial_sum_a211")
        for row in zip(range(n_max + 1), a122, a211, deltas, psums):
            print(*row)
        print(
            "experiment modasc122-vs-211 on n<="
            f"{n_max}: a122(n) = a211(n) - a211(n-1) "
            f"{'holds' if a122 == deltas else 'fails'}; "
            "a122(n) = sum of a211(k) for k<n "
            f"{'holds' if a122 == psums else 'fails'}"
        )
    else:
        rows = [counting.oracle_counts(text, cls, n_max)
                for cls in ("modasc", "prim") for text in ("211", "1223")]
        print("n modasc(211) modasc(1223) prim(211) prim(1223)")
        for row in zip(range(n_max + 1), *rows):
            print(*row)
        verdict = "agree" if rows[0] == rows[1] and rows[2] == rows[3] else "differ"
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
        default=DEFAULT_CAP,
        help=f"enumeration cap on word length (default {DEFAULT_CAP})",
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
    p.add_argument("--suite", default="all", choices=SUITE_NAMES)
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
    p.add_argument("--order", type=int, default=9, help="lengths 0..N, at most the cap")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cap < 1:
            raise _usage_error("--cap must be positive")
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
