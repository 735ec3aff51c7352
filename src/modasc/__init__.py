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

from .counting import (
    NoClosedFormError,
    ascent_distribution,
    binomial_transform_count,
    closed_counts,
    formula_counts,
    has_closed_form,
    ogf_substitute,
    oracle_counts,
    p_coefficients,
    special_series,
    stirling_identity_check,
)
from .maps import (
    burge_fishburn,
    chains,
    claesson,
    claesson_inverse,
    modasc112_to_composition,
    modasc122_to_partition,
    omega_to_prim,
    phi_312,
    phi_inverse,
    standardize,
)
from .paths import avoids_dudu, decompose_returns, generate_dudu_avoiders
from .patterns import (
    avoiders,
    contains,
    contains_special,
    count_avoiders,
    in_omega,
)
from .series import IntSeries
from .words import (
    ConsistencyError,
    collapse_flats,
    format_word,
    generate_modasc,
    generate_prim,
    insert_flats,
    is_cayley,
    is_modasc,
    is_prim,
    parse_word,
    statistics,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "IntSeries",
    "NoClosedFormError",
    "ascent_distribution",
    "avoiders",
    "avoids_dudu",
    "binomial_transform_count",
    "burge_fishburn",
    "chains",
    "claesson",
    "claesson_inverse",
    "closed_counts",
    "collapse_flats",
    "contains",
    "contains_special",
    "count_avoiders",
    "decompose_returns",
    "format_word",
    "formula_counts",
    "generate_dudu_avoiders",
    "generate_modasc",
    "generate_prim",
    "has_closed_form",
    "in_omega",
    "insert_flats",
    "is_cayley",
    "is_modasc",
    "is_prim",
    "modasc112_to_composition",
    "modasc122_to_partition",
    "ogf_substitute",
    "omega_to_prim",
    "oracle_counts",
    "p_coefficients",
    "parse_word",
    "phi_312",
    "phi_inverse",
    "special_series",
    "standardize",
    "statistics",
    "stirling_identity_check",
]
