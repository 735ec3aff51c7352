"""Bijections between primitive sequences, permutations, paths, and partitions.

The central map is standardization: the copies of each value v, read
left to right, are replaced by the next run of consecutive integers.
On primitive modified ascent sequences standardization is injective and
its image is the class of permutations that start with 1 and avoid the
``omega`` pattern; `omega_to_prim` computes the inverse by letting every
non-ascent-top fall to the largest earlier ascent top below it.

The remaining maps are the transpose of the biword (1..n over x) with
either tie-break, the coding of 112-avoiders by compositions, of
122-avoiders by set partitions whose block minima form an interval, of
312-avoiding primitives by Dyck paths with no dudu factor, and the
block-wise linear order on set partitions that encodes them as 32-1
avoiding permutations.
"""

from __future__ import annotations

import bisect

from .patterns import Perm, contains, contains_special, in_omega
from .paths import decompose_returns
from .words import Word, is_cayley, is_modasc, is_prim, statistics

# A set partition: blocks as sorted tuples, ordered by their minima.
SetPartition = tuple[tuple[int, ...], ...]

# A chain: (smallest value, number of consecutive values).
Chain = tuple[int, int]


def standardize(x: Word) -> Perm:
    """Standardize a Cayley permutation into a permutation.

    >>> standardize((3, 1, 2, 1, 1, 2, 3, 4, 1))
    (7, 1, 5, 2, 3, 6, 8, 9, 4)
    >>> standardize((1, 3, 1, 2))
    (1, 4, 2, 3)
    """
    if not is_cayley(x):
        raise ValueError(f"{x} is not a Cayley permutation")
    if not x:
        return ()
    m = max(x)
    counts = [0] * (m + 1)
    for v in x:
        counts[v] += 1
    offset = [0] * (m + 1)
    for v in range(2, m + 1):
        offset[v] = offset[v - 1] + counts[v - 1]
    seen = [0] * (m + 1)
    out = []
    for v in x:
        seen[v] += 1
        out.append(offset[v] + seen[v])
    return tuple(out)


def chains(p: Perm) -> list[Chain]:
    """Maximal runs of consecutive values headed by an ascent top.

    Each chain is returned as (start value, length); the starts are
    exactly the ascent-top values of p.
    """
    if not in_omega(p):
        raise ValueError(f"{p} is not in the omega class")
    if not p:
        return []
    tops = sorted(v for _, v in statistics(p).asctops)
    bounds = tops + [len(p) + 1]
    return [(v, nxt - v) for v, nxt in zip(bounds, bounds[1:])]


def omega_to_prim(p: Perm) -> Word:
    """Inverse of standardization on the omega class.

    Every non-ascent-top falls to the largest ascent-top value below it
    that occurs earlier; the result is rescaled to a Cayley permutation.
    """
    if not in_omega(p):
        raise ValueError(f"{p} is not in the omega class")
    if not p:
        return ()
    top_positions = {i for i, _ in statistics(p).asctops}
    heights: list[int] = []
    seen_tops: list[int] = []
    for i, v in enumerate(p, start=1):
        if i in top_positions:
            heights.append(v)
            bisect.insort(seen_tops, v)
        else:
            j = bisect.bisect_left(seen_tops, v)
            if j == 0:
                raise ValueError(f"no earlier ascent top below {v} in {p}")
            heights.append(seen_tops[j - 1])
    scale = {v: r for r, v in enumerate(sorted(set(heights)), start=1)}
    return tuple(scale[v] for v in heights)


def omega_to_prim_by_chains(p: Perm) -> Word:
    """Same map computed through chains: each value falls to its chain head."""
    if not p:
        return ()
    heads = chains(p)
    start_of = {}
    for rank, (start, length) in enumerate(sorted(heads), start=1):
        for v in range(start, start + length):
            start_of[v] = rank
    return tuple(start_of[v] for v in p)


def burge_fishburn(x: Word, tiebreak: str = "descending") -> Perm:
    """Transpose the biword (1..n over x) and read off the bottom row.

    Columns are sorted by x-value; equal x-values are ordered by
    position descending (the classical map to Fishburn permutations) or
    ascending (which on primitive words lands in the omega class).

    >>> burge_fishburn((1, 3, 1, 2), "descending")
    (3, 1, 4, 2)
    >>> burge_fishburn((1, 3, 1, 2), "ascending")
    (1, 3, 4, 2)
    """
    if tiebreak not in ("descending", "ascending"):
        raise ValueError(f"unknown tie-break {tiebreak!r}")
    if not is_modasc(x):
        raise ValueError(f"{x} is not a modified ascent sequence")
    if tiebreak == "ascending" and not is_prim(x):
        raise ValueError("ascending tie-break requires a primitive word")
    if tiebreak == "descending":
        cols = sorted(zip(x, range(1, len(x) + 1)), key=lambda c: (c[0], -c[1]))
    else:
        cols = sorted(zip(x, range(1, len(x) + 1)))
    return tuple(i for _, i in cols)


def modasc112_to_composition(x: Word) -> tuple[int, ...]:
    """Value multiplicities of a 112-avoider, a composition of its length.

    >>> modasc112_to_composition((1, 2, 3, 3, 2, 2, 1))
    (2, 3, 2)
    """
    if not x:
        raise ValueError("the word must be nonempty")
    if not is_modasc(x) or contains(x, (1, 1, 2)):
        raise ValueError(f"{x} is not a 112-avoiding modified ascent sequence")
    parts = [0] * max(x)
    for v in x:
        parts[v - 1] += 1
    return tuple(parts)


def composition_to_modasc112(parts: tuple[int, ...]) -> Word:
    """Rebuild the left-pyramid word 1 2 .. m m^a .. 1^b from a composition."""
    if not parts or any(c <= 0 for c in parts):
        raise ValueError("parts must be positive")
    m = len(parts)
    word = list(range(1, m + 1))
    for v in range(m, 0, -1):
        word.extend([v] * (parts[v - 1] - 1))
    return tuple(word)


def modasc122_to_partition(x: Word) -> SetPartition:
    """Encode a 122-avoider as a set partition with interval block minima.

    Split the word before every copy of 1, standardize, and read each
    segment as a block.

    >>> modasc122_to_partition((1, 3, 4, 1, 1, 2, 5, 6, 1))
    ((1, 6, 7), (2,), (3, 5, 8, 9), (4,))
    """
    if not x:
        raise ValueError("the word must be nonempty")
    if not is_modasc(x) or contains(x, (1, 2, 2)):
        raise ValueError(f"{x} is not a 122-avoiding modified ascent sequence")
    p = standardize(x)
    blocks: list[list[int]] = []
    for v, label in zip(x, p):
        if v == 1:
            blocks.append([label])
        else:
            blocks[-1].append(label)
    return tuple(tuple(sorted(b)) for b in blocks)


def partition_to_modasc122(beta: SetPartition) -> Word:
    """Inverse of `modasc122_to_partition`."""
    blocks = _validated_partition(beta)
    k = len(blocks)
    if [b[0] for b in blocks] != list(range(1, k + 1)):
        raise ValueError("block minima must be exactly 1..k")
    word: list[int] = []
    for b in blocks:
        word.append(1)
        word.extend(label - k + 1 for label in b[1:])
    return tuple(word)


def _validated_partition(beta: SetPartition) -> SetPartition:
    blocks = tuple(tuple(sorted(b)) for b in beta)
    blocks = tuple(sorted(blocks, key=lambda b: b[0]))
    elements = [v for b in blocks for v in b]
    n = len(elements)
    if sorted(elements) != list(range(1, n + 1)):
        raise ValueError(f"{beta} is not a partition of an initial segment")
    return blocks


def claesson(beta: SetPartition) -> Perm:
    """Linear order on a set partition: in each block the minimum comes
    last and all other elements come first in increasing order; blocks
    are listed by increasing minima.

    >>> claesson(((1, 3, 6), (2, 7), (4,), (5, 8, 9)))
    (3, 6, 1, 7, 2, 4, 8, 9, 5)
    """
    blocks = _validated_partition(beta)
    out: list[int] = []
    for b in blocks:
        out.extend(b[1:])
        out.append(b[0])
    return tuple(out)


def claesson_inverse(p: Perm) -> SetPartition:
    """Recover the partition: blocks end exactly at right-to-left minima."""
    if contains_special(p, "32-1"):
        raise ValueError(f"{p} contains 32-1")
    if not p:
        return ()
    n = len(p)
    suffix = [n + 1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = min(p[i], suffix[i + 1])
    blocks = []
    start = 0
    for i, v in enumerate(p):
        # a block ends exactly where a right-to-left minimum sits
        if v < suffix[i + 1]:
            blocks.append(tuple(sorted(p[start : i + 1])))
            start = i + 1
    # the blocks end at increasing minima, so they are already in order
    return tuple(blocks)


def phi_312(x: Word) -> str:
    """Map a 312-avoiding primitive sequence to a Dyck path with no dudu.

    The word splits at its copies of 1 into blocks; each block maps to
    one return factor of the path, recursively.

    >>> phi_312((1, 2))
    'ud'
    >>> phi_312((1, 2, 1))
    'udud'
    >>> phi_312((1, 2, 3))
    'uudd'
    """
    if not x:
        raise ValueError("the map is defined from length 1 up")
    if not is_prim(x) or contains(x, (3, 1, 2)):
        raise ValueError(f"{x} is not a 312-avoiding primitive sequence")
    return _phi(x)


def _phi(x: Word) -> str:
    if len(x) <= 1:
        return ""
    segs: list[list[int]] = []
    for v in x:
        if v == 1:
            segs.append([])
        else:
            segs[-1].append(v)
    parts = ["u" + _phi(tuple(v - 1 for v in segs[0])) + "d"]
    for prev, seg in zip(segs, segs[1:]):
        m = max(prev)
        parts.append("u" + _phi((1,) + tuple(v - (m - 1) for v in seg)) + "d")
    return "".join(parts)


def phi_inverse(path: str) -> Word:
    """Inverse of `phi_312`; the empty path maps to the word (1,)."""
    if path == "":
        return (1,)
    factors = decompose_returns(path)
    first = phi_inverse(factors[0])
    blocks = [tuple(v + 1 for v in first)]
    for q in factors[1:]:
        w = phi_inverse(q)
        m = max(blocks[-1])
        blocks.append(tuple(v + m - 1 for v in w[1:]))
    out: list[int] = []
    for b in blocks:
        out.append(1)
        out.extend(b)
    return tuple(out)
