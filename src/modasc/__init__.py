"""Exact enumeration and verification for pattern avoidance on
modified ascent sequences.

The interesting objects are Cayley permutations: sequences of positive
integers using every value from 1 up to their maximum.  A modified
ascent sequence is a Cayley permutation whose ascent tops are exactly
the leftmost copies of each value; dropping repeated adjacent letters
gives the primitive ones.  This package enumerates both classes under
classical pattern avoidance, carries the bijections to compositions,
set partitions, permutation classes and Dyck paths, and cross-checks
every closed formula and generating function against brute force.
"""

import importlib

#: Each submodule and the names the package re-exports from it.  No
#: submodule is imported until one of its names, or the submodule
#: itself, is first read from the package (PEP 562), so `modasc count`
#: loads only `cli`, `words` and `patterns`.
_EXPORTS = {
    "checks": (),
    "cli": (),
    "counting": (
        "NoClosedFormError",
        "ascent_distribution",
        "binomial_transform_count",
        "closed_counts",
        "formula_counts",
        "has_closed_form",
        "ogf_substitute",
        "oracle_counts",
        "p_coefficients",
        "stirling_identity_check",
    ),
    "maps": (
        "burge_fishburn",
        "chains",
        "claesson",
        "claesson_inverse",
        "modasc112_to_composition",
        "modasc122_to_partition",
        "omega_to_prim",
        "phi_312",
        "phi_inverse",
        "standardize",
    ),
    "paths": ("avoids_dudu", "decompose_returns", "generate_dudu_avoiders"),
    "patterns": ("avoiders", "contains", "contains_special", "count_avoiders", "in_omega"),
    "series": ("IntSeries",),
    "words": (
        "ConsistencyError",
        "collapse_flats",
        "format_word",
        "generate_modasc",
        "generate_prim",
        "insert_flats",
        "is_cayley",
        "is_modasc",
        "is_prim",
        "parse_word",
        "statistics",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
