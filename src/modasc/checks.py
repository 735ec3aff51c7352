"""Named verification suites: bijections, transport, equivalences, identities.

Each check replays one statement of the theory at desk scale and
returns None on success or a short witness string on failure.  Suites
run in declaration order so the first failure is reproducible.
A check that compares counts only hands its routes, lists of counts by
length, to `agree`, whose witness reads "n=N: route value, ...".  The
equivalence checks are such checks: Av(a ∪ b) lies in both Av(a) and
Av(b), so equal counts of the three make Av(a) = Av(b), and a failure
reads "a vs b over cls: n=N: ...".
A check of a bijection hands its domain, map, inverse and target, by
length, to `bijects`, whose witness reads "x: message" (the map, its
inverse on the image of x, or a law checked on the pair raises
ValueError(message)), "x -> y -> z" (the inverse takes y to z, not x),
"x, x2 -> y" (two objects share an image), "n=N: y is outside the
target" or "n=N: t is missed".
`table_rows` replays the numeric tables of `counting` against the oracle
and keeps its own row text, which `table` prints.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from . import counting, maps, paths, patterns, words
from .series import IntSeries


class Caps(NamedTuple):
    """Every word, permutation and set-partition check to length `words`;
    paths and the partition identity three further, to at most 12."""

    words: int

    @property
    def paths(self) -> int:
        return min(self.words + 3, 12)


class CheckResult(NamedTuple):
    tag: str
    description: str
    passed: bool
    witness: str | None = None
    seconds: float = 0.0


def _all_partitions(n: int, interval_minima: bool = False):
    """Every set partition of [n], blocks sorted, in DFS order; with
    `interval_minima`, only those whose block minima are 1..k."""
    blocks: list[list[int]] = []

    def place(i: int):
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from place(i + 1)
            b.pop()
        if not interval_minima or len(blocks) == i - 1:
            blocks.append([i])
            yield from place(i + 1)
            blocks.pop()

    yield from place(1)


def _compositions(n: int):
    """Every composition of n >= 1, one for each set of cuts at the n - 1 gaps."""
    for mask in range(2 ** (n - 1)):
        cuts = [0] + [i for i in range(1, n) if mask >> (i - 1) & 1] + [n]
        yield tuple(b - a for a, b in zip(cuts, cuts[1:]))


# ---------------------------------------------------------------------------
# bijections


def bijects(lengths: range, domain: Callable[[int], Iterable], forward: Callable,
            inverse: Callable | None = None, target: Callable[[int], Iterable] | None = None) -> str | None:
    """None if, at every n in `lengths`, `forward` is one to one on
    `domain(n)`, `inverse` (if given) takes every image back, and the
    image is `target(n)` (if given); else a witness, in the forms of the
    module docstring, for the first failure.  A map that raises ValueError
    is a witness, not a crash.  With an inverse the roundtrip implies
    injectivity.  Each map is called once on each object.

    >>> bijects(range(4), range, lambda x: x * x % 3)
    '1, 2 -> 1'
    >>> bijects(range(4), range, lambda x: x + 1, lambda y: y - 1, lambda n: range(1, n + 2))
    'n=0: 1 is missed'
    """
    for n in lengths:
        image = {}  # image -> preimage, kept only where no inverse rules out a shared image
        for x in domain(n):
            try:
                y = forward(x)
                back = x if inverse is None else inverse(y)
            except ValueError as exc:
                return f"{x}: {exc}"
            if back != x:
                return f"{x} -> {y} -> {back}"
            if y in image:
                return f"{image[y]}, {x} -> {y}"
            image[y] = x if inverse is None else None
        if target is not None:
            wanted = set(target(n))
            outside = [y for y in image if y not in wanted]
            if outside:
                return f"n={n}: {outside[0]} is outside the target"
            if len(image) != len(wanted):
                return f"n={n}: {min(wanted - image.keys())} is missed"
    return None


def check_flat_roundtrip(caps: Caps) -> str | None:
    for n in range(1, caps.words + 1):
        for x in words.generate_modasc(n):
            d = words.collapse_flats(x)
            if words.insert_flats(d) != x:
                return f"roundtrip failed at {x}"
            if not words.is_prim(d.primitive):
                return f"core of {x} is not primitive"
            if words.statistics(x).asc != words.statistics(d.primitive).asc:
                return f"ascent count changed collapsing {x}"
    return None


def check_standardize_bijection(caps: Caps) -> str | None:
    return bijects(range(caps.words + 1), words.generate_prim, maps.standardize,
                   maps.omega_to_prim, patterns.generate_omega)


def check_burge_ascending(caps: Caps) -> str | None:
    return bijects(range(caps.words + 1), words.generate_prim,
                   lambda x: maps.burge_fishburn(x, "ascending"), target=patterns.generate_omega)


def check_burge_descending(caps: Caps) -> str | None:
    def transpose(x: words.Word) -> patterns.Perm:
        p = maps.burge_fishburn(x, "descending")
        if sorted(p) != list(range(1, len(x) + 1)):
            raise ValueError("the transpose is not a permutation")
        return p

    return bijects(range(caps.words + 1), words.generate_modasc, transpose)


def check_composition_112(caps: Caps) -> str | None:
    return bijects(range(1, caps.words + 1), lambda n: patterns.avoiders(n, ((1, 1, 2),), "modasc"),
                   maps.modasc112_to_composition, maps.composition_to_modasc112, _compositions)


def check_partition_122(caps: Caps) -> str | None:
    # the inverse refuses a partition whose block minima are not 1..k
    return bijects(range(1, caps.words + 1),
                   lambda n: patterns.avoiders(n, ((1, 2, 2),), "modasc"), maps.modasc122_to_partition,
                   maps.partition_to_modasc122, lambda n: _all_partitions(n, interval_minima=True))


def check_dyck_312(caps: Caps) -> str | None:
    return bijects(range(1, caps.words + 1),
                   lambda n: patterns.avoiders(n, ((3, 1, 2),), "prim"), maps.phi_312,
                   maps.phi_inverse, lambda n: paths.generate_dudu_avoiders(n - 1))


def check_claesson(caps: Caps) -> str | None:
    lengths = range(1, caps.words + 1)
    rlmin: Counter = Counter()  # images by length and right-to-left minima

    def encode(beta: maps.SetPartition) -> patterns.Perm:
        p = maps.claesson(beta)
        st = words.statistics(p)
        if st.des != sum(len(b) > 1 for b in beta):
            raise ValueError("descent law failed")
        rlmin[len(p), len(st.rlmin)] += 1
        return p

    witness = bijects(lengths, _all_partitions, encode, maps.claesson_inverse,
                      lambda n: patterns.grow_perms(n, "32-1"))
    if witness:
        return witness
    # the image is all of Sym_n(32-1), so its histogram is the class's
    for n in lengths:
        row = [rlmin[n, j] for j in range(n + 1)]
        if sum(row) != counting.bell(n):
            return f"|Sym_n(32-1)| != Bell at n={n}"
        for j, cnt in enumerate(row):
            if cnt != counting.stirling2(n, j):
                return f"right-to-left minima law failed at n={n}, j={j}"
    return None


# ---------------------------------------------------------------------------
# transport


def check_prim_counts_omega(caps: Caps) -> str | None:
    lengths = range(caps.words + 1)
    return agree(lengths, primitive=[words.count_level(n, True) for n in lengths],
                 omega=[len(patterns.generate_omega(n)) for n in lengths])


def check_chain_construction(caps: Caps) -> str | None:
    for n in range(caps.words + 1):
        for p in patterns.generate_omega(n):
            if maps.omega_to_prim(p) != maps.omega_to_prim_by_chains(p):
                return f"chain and falling constructions differ at {p}"
    return None


def _transport(
    ys: tuple[words.Word, ...], family: str, count: Callable[[int], int]
) -> Callable[[Caps], str | None]:
    """The check that standardization maps Prim_n(y) onto the omega
    permutations that avoid y, for each y in `ys`, and that |Prim_n(y)| is
    `count(n)`, the family's term named in the witness.  `count` reads its
    family from `counting` when called, so a traced or patched one shows."""

    def check(caps: Caps) -> str | None:
        for y in ys:
            for n in range(1, caps.words + 1):
                avs = patterns.avoiders(n, (y,), "prim")
                image = {maps.standardize(x) for x in avs}
                if image != {p for p in patterns.generate_omega(n) if not patterns.contains(p, y)}:
                    return f"transport of {y} fails at n={n}"
                if len(avs) != count(n):
                    return f"|Prim_n({y})| != {family} at n={n}"
        return None

    return check


def check_primitive_statistics(caps: Caps) -> str | None:
    for n in range(1, caps.words + 1):
        for w in words.generate_prim(n):
            st = words.statistics(w)
            if st.wlrmax != st.lrmax or st.wrlmax != st.rlmax:
                return f"weak and strict maxima differ on {w}"
            if st.lrmin != ((1, 1),):
                return f"left-to-right minima of {w} are not just the head"
    return None


def check_standardize_statistics(caps: Caps) -> str | None:
    for n in range(1, caps.words + 1):
        for w in words.generate_prim(n):
            p = maps.standardize(w)
            des_w = {i for i in range(n - 1) if w[i] > w[i + 1]}
            des_p = {i for i in range(n - 1) if p[i] > p[i + 1]}
            if des_w != des_p:
                return f"descent set changed standardizing {w}"
            stw, stp = words.statistics(w), words.statistics(p)
            if {i for i, _ in stw.wrlmin} != {i for i, _ in stp.rlmin}:
                return f"weak minima positions changed standardizing {w}"
    return None


# ---------------------------------------------------------------------------
# equivalences

EQUIVALENCES: tuple[tuple[str, str, str], ...] = (
    ("21", "121", "modasc"),
    ("213", "1213", "modasc"),
    ("312", "1312", "modasc"),
    ("212", "1212", "modasc"),
    ("212", "2132", "modasc"),
    ("212", "12132", "modasc"),
    ("122", "1232", "prim"),
    ("221", "2321", "prim"),
)

JOINT_EQUIVALENCES: tuple[tuple[tuple[str, ...], str, str], ...] = (
    (("212", "213"), "213", "prim"),
    (("221", "231"), "231", "prim"),
)


def _equivalences(rows: Iterable[tuple], caps: Caps) -> str | None:
    """None if, for each row (a, b, cls) of a pattern or a tuple of
    patterns on each side, Av_n(a) = Av_n(b) in the class at every length
    n <= caps.words; else the `agree` witness of the first row that fails.
    Av_n(a ∪ b) lies in both sets, so three equal counts make them equal.
    A side is named by its distinct patterns joined with commas."""
    for a, b, cls in rows:
        a, b = ((s,) if isinstance(s, str) else s for s in (a, b))
        names = [",".join(dict.fromkeys(s)) for s in (a, a + b, b)]
        # a name met twice is one pattern set, counted once
        routes = {name: patterns.count_avoiders_upto(caps.words, map(patterns.parse_pattern, name.split(",")), cls)
                  for name in dict.fromkeys(names)}
        witness = agree(range(caps.words + 1), **routes)
        if witness:
            return f"{names[0]} vs {names[2]} over {cls}: {witness}"
    return None


# ---------------------------------------------------------------------------
# identities

SERIES_ORDER = 20


def check_series_f(caps: Caps) -> str | None:
    return agree(range(SERIES_ORDER + 1), first_form=counting.series_f(SERIES_ORDER).coeffs,
                 second_form=counting.series_f_second_form(SERIES_ORDER).coeffs)


def check_series_prim122(caps: Caps) -> str | None:
    one_plus_t = IntSeries.one(SERIES_ORDER) + IntSeries.t(SERIES_ORDER)
    return agree(range(SERIES_ORDER + 1), series=(one_plus_t * counting.series_f(SERIES_ORDER)).coeffs,
                 product=(one_plus_t * counting.series_f_second_form(SERIES_ORDER)).coeffs,
                 formula=counting.formula_counts("122", "prim", SERIES_ORDER),
                 oracle=counting.oracle_counts("122", "prim", caps.words))


def check_series_modasc122(caps: Caps) -> str | None:
    return agree(range(1, SERIES_ORDER + 1), series=counting.series_modasc122(SERIES_ORDER).coeffs,
                 power_sum=counting.formula_counts("122", "modasc", SERIES_ORDER),
                 oracle=counting.oracle_counts("122", "modasc", caps.words))


def check_series_g(caps: Caps) -> str | None:
    return agree(range(caps.words), G=counting.series_g(SERIES_ORDER).coeffs,
                 oracle_at_next=counting.oracle_counts("122", "prim", caps.words)[1:])


def check_transform_agreement(caps: Caps) -> str | None:
    lengths = range(1, SERIES_ORDER + 1)
    for text in sorted({p for row in counting.TABLE1 for p in row.patterns}):
        if not counting.has_closed_form(text, "prim"):
            continue
        prim = counting.formula_counts(text, "prim", SERIES_ORDER)
        by_length = dict(enumerate(prim))
        routes = {
            "substitution": counting.ogf_substitute(IntSeries(prim), SERIES_ORDER).coeffs,
            # the transform starts at length 1; length 0 is the empty word
            "transform": [1] + [counting.binomial_transform_count(by_length, n) for n in lengths],
        }
        if counting.is_primitive_pattern(text):
            routes["formula"] = counting.formula_counts(text, "modasc", SERIES_ORDER)
        witness = agree(lengths, **routes)
        if witness:
            return f"{witness} for {text}"
    return None


def check_series_d(caps: Caps) -> str | None:
    order = max(SERIES_ORDER, caps.paths)
    return agree(range(order + 1), series=counting.series_d(order).coeffs,
                 coefficient_sum=[counting.dudu_count(n) for n in range(order + 1)],
                 generated=[len(paths.generate_dudu_avoiders(n)) for n in range(caps.paths + 1)])


def check_series_modasc312(caps: Caps) -> str | None:
    # quoted from length 0; a shifted quote would disagree, not pass
    _, quoted = counting.PRINTED_SEQUENCES[("312", "modasc")]
    return agree(range(1, SERIES_ORDER + 1), series=counting.series_modasc312(SERIES_ORDER).coeffs,
                 formula=counting.formula_counts("312", "modasc", SERIES_ORDER), quoted=quoted,
                 oracle=counting.oracle_counts("312", "modasc", caps.words))


def check_series_motzkin(caps: Caps) -> str | None:
    return agree(range(SERIES_ORDER + 1), fixed_point=counting.series_motzkin(SERIES_ORDER).coeffs,
                 recurrence=[counting.motzkin(n) for n in range(SERIES_ORDER + 1)])


def check_stirling_identity(caps: Caps) -> str | None:
    for n in range(1, caps.paths + 1):
        if sum(counting.p_coefficients(n)) != counting.bell(n):
            return f"partition row sum != Bell at n={n}"
        for h in range(n):
            if not counting.stirling_identity_check(n, h):
                return f"identity fails at n={n}, h={h}"
    return None


def check_ascent_laws_2321(caps: Caps) -> str | None:
    for n in range(1, caps.words + 1):
        hist = counting.ascent_distribution("2321", "modasc", n)
        for h, cnt in hist.items():
            if cnt != counting.stirling2(n, n - h):
                return f"class histogram fails at n={n}, h={h}"
        if sum(hist.values()) != counting.bell(n):
            return f"class total != Bell at n={n}"
        prim_hist = counting.ascent_distribution("2321", "prim", n)
        row = counting.p_coefficients(n - 1)
        for h, cnt in prim_hist.items():
            j = n - 1 - h
            want = row[j] if 0 <= j < len(row) else 0
            if cnt != want:
                return f"primitive histogram fails at n={n}, h={h}"
    return None


def check_insertion_221(caps: Caps) -> str | None:
    lengths = range(1, caps.words + 1)
    # insertion starts at length 1; length 0 is the empty word
    return agree(lengths, insertion=[1] + [counting.modasc221_by_insertion(n) for n in lengths],
                 formula=counting.formula_counts("221", "modasc", caps.words),
                 oracle=counting.oracle_counts("221", "modasc", caps.words))


def check_printed_sequences(caps: Caps) -> str | None:
    for row in table_rows(("quoted",), caps.words, caps.words):
        if row.verdict == "FAIL":
            return f"{row.patterns}/{row.cls} {row.detail}"
    return None


# ---------------------------------------------------------------------------
# the numeric tables


class TableRow(NamedTuple):
    kind: str  # "families", "golden" or "quoted"
    patterns: str
    cls: str
    verdict: str  # "ok", "data" or "FAIL"
    detail: str
    comparisons: int


def agree(lengths: range, **routes: Sequence[int]) -> str | None:
    """None if, at every n in `lengths`, the routes that reach n (each
    lists counts by length from 0) give one count; else a witness for the
    first n where they differ.  Fewer than two routes at some n is a
    ValueError, so that no check passes by comparing nothing.

    >>> agree(range(1, 4), series=[1, 1, 2, 5], oracle=[1, 1, 2, 4, 14])
    'n=3: series 5, oracle 4'
    """
    for n in lengths:
        reached = {name: route[n] for name, route in routes.items() if n < len(route)}
        if len(reached) < 2:
            raise ValueError(f"fewer than two routes reach n={n}")
        if len(set(reached.values())) > 1:
            return f"n={n}: " + ", ".join(f"{name} {c}" for name, c in reached.items())
    return None


def _shown(counts) -> str:
    return ",".join(map(str, counts))


def table_rows(kinds: Collection[str], n_max: int, cap: int) -> Iterator[TableRow]:
    """Replay the tables of `counting` against the oracle, in the kind
    order families (TABLE1 at lengths 1..n_max), golden (TABLE2 to the
    pinned length, or n_max) and quoted (PRINTED_SEQUENCES against the
    formula); the oracle stops at `cap`."""
    if "families" in kinds:
        for row in counting.TABLE1:
            joined = ",".join(row.patterns)
            for cls, family in (("modasc", row.modasc), ("prim", row.prim)):
                vals = [tuple(counting.oracle_counts(p, cls, n_max)[1:]) for p in row.patterns]
                shown = _shown(vals[0])
                if family is None:
                    verdict = "data" if len(set(vals)) == 1 else "FAIL"
                    yield TableRow("families", joined, cls, verdict, shown, len(vals) - 1)
                    continue
                formula = tuple(counting.formula_counts(row.patterns[0], cls, n_max)[1:])
                ok = set(vals) == {formula}
                detail = shown if ok else f"oracle {shown} formula {_shown(formula)}"
                yield TableRow("families", joined, cls, "ok" if ok else "FAIL", detail, len(vals))

    if "golden" in kinds:
        for (text, cls), pinned in sorted(counting.TABLE2.items()):
            depth = min(len(pinned) if pinned else n_max, cap)
            got = tuple(counting.oracle_counts(text, cls, depth)[1:])
            shown = _shown(got)
            if pinned is None:
                yield TableRow("golden", text, cls, "data", shown, 0)
            elif got == pinned[:depth]:
                yield TableRow("golden", text, cls, "ok", shown, 1)
            else:
                detail = f"oracle {shown} pinned {_shown(pinned[:depth])}"
                yield TableRow("golden", text, cls, "FAIL", detail, 1)

    if "quoted" in kinds:
        for (text, cls), (offset, quoted) in sorted(counting.PRINTED_SEQUENCES.items()):
            top = offset + len(quoted) - 1
            routes = {"formula": counting.formula_counts(text, cls, top),
                      "oracle": counting.oracle_counts(text, cls, min(top, cap))}
            bad = next((f"{name} differs at n={n}" for n, v in enumerate(quoted, offset)
                        for name, route in routes.items() if n < len(route) and route[n] != v), None)
            shown = _shown(quoted)
            verdict, detail = ("ok", shown) if bad is None else ("FAIL", f"{bad}; quoted {shown}")
            yield TableRow("quoted", text, cls, verdict, detail, 1)


Check = tuple[str, str, Callable[[Caps], "str | None"]]

SUITES: dict[str, tuple[Check, ...]] = {
    "bijections": (
        ("flats.roundtrip", "collapsing and reinserting flat steps is the identity", check_flat_roundtrip),
        ("std.bijection", "standardization bijects primitives onto the omega class", check_standardize_bijection),
        ("burge.ascending", "the ascending-tie transpose bijects primitives onto the omega class", check_burge_ascending),
        ("burge.descending", "the descending-tie transpose is injective into permutations", check_burge_descending),
        ("comp.112", "112-avoiders encode compositions", check_composition_112),
        ("part.122", "122-avoiders encode partitions with interval minima", check_partition_122),
        ("dyck.312", "312-avoiding primitives encode dudu-avoiding Dyck paths", check_dyck_312),
        ("claesson.32-1", "partitions encode 32-1-avoiding permutations", check_claesson),
    ),
    "transport": (
        ("omega.size", "primitive words and the omega class are equinumerous", check_prim_counts_omega),
        ("omega.chains", "the chain and falling constructions of the inverse agree", check_chain_construction),
        ("transport.213-231", "avoidance of 213 and 231 transports along standardization",
         _transport(((2, 1, 3), (2, 3, 1)), "Motzkin", lambda n: counting.motzkin(n - 1))),
        # An omega occurrence p_i > p_{i+1} followed later by p_{i+1} - 1 is
        # a 321, so the image Ω_n ∩ Av(321) is 1 ⊕ Sym_{n-1}(321).
        ("transport.321", "321-avoiding primitives standardize onto 1 followed by 321-avoiders",
         _transport(((3, 2, 1),), "Catalan shift", lambda n: counting.catalan(n - 1))),
        ("prim.stats", "on primitive words weak and strict extrema coincide", check_primitive_statistics),
        ("std.stats", "standardization preserves descents and weak minima positions", check_standardize_statistics),
    ),
    "equivalences": (
        # the tables are read when the check runs
        ("equiv.single", "single patterns with identical avoider sets",
         lambda caps: _equivalences(EQUIVALENCES, caps)),
        ("equiv.joint", "redundant patterns inside pattern pairs",
         lambda caps: _equivalences(JOINT_EQUIVALENCES, caps)),
    ),
    "identities": (
        ("series.F", "the two forms of F agree", check_series_f),
        ("series.prim122", "primitive 122 counts: series, formula and oracle agree", check_series_prim122),
        ("series.modasc122", "122 counts: series, power sum and oracle agree", check_series_modasc122),
        ("series.G", "G shifts the primitive 122 counts by one", check_series_g),
        ("transform.eq", "substitution t -> t/(1-t) equals the binomial transform", check_transform_agreement),
        ("series.D", "D matches generated dudu-avoiding paths and the coefficient sum", check_series_d),
        ("series.modasc312", "312 counts: series, formula, oracle and quoted values agree", check_series_modasc312),
        ("series.motzkin", "the Motzkin fixed point matches the recurrence", check_series_motzkin),
        ("stirling.identity", "the Stirling-number identity holds with brute-forced coefficients", check_stirling_identity),
        ("ascents.2321", "ascent histograms over 2321-avoiders match Stirling rows", check_ascent_laws_2321),
        ("insertion.221", "221 counts by insertion, formula and oracle agree", check_insertion_221),
        ("printed.sequences", "sequences quoted in full match formula and oracle", check_printed_sequences),
    ),
}

SUITES["all"] = SUITES["bijections"] + SUITES["transport"] + SUITES["equivalences"] + SUITES["identities"]


def run_suite(name: str, caps: Caps) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    results = []
    for tag, description, fn in SUITES[name]:
        started = time.perf_counter()
        witness = fn(caps)
        seconds = time.perf_counter() - started
        results.append(CheckResult(tag, description, witness is None, witness, seconds))
    return results
