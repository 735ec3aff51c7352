"""Workload task lists and the answers they are checked against.

Every expected answer is a literal recorded here.  None is computed from
`modasc.counting`, so a bug shared by an oracle and a closed form cannot
make the benchmark pass.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Modasc avoiders of length 10 of each pattern in the modasc pools: Bell(10).
BELL_10 = 115975
#: Primitive avoiders of length 10 of each pattern in the primitive pool: Bell(9).
BELL_9 = 21147
#: Modified ascent sequences of length 11: the Fishburn number.
FISHBURN_11 = 1422074
#: sha256 of the stdout of `modasc generate --n 10` (201608 lines).
GENERATE_10_SHA256 = "a6c1ce40ceeee6b4998edd8ec79d145b3edcecd26dd78186d8373527cad32455"
#: sha256 of the stdout of `modasc verify --suite all --n 8`, whose last
#: line reads `verify all: 28/28 checks passed (...)`.
VERIFY_8_SHA256 = "175ca8a0df9fef8c6b88b487c82b37914526b14c68f581fbbc984b7c5442d43a"

# Pools of patterns with the same answer and the same last-letter shape.
# A pruning that helps only one shape shows on one task slot.
#: Modasc patterns whose last letter occurs once.
MODASC_LAST_ONCE = ("2321", "2213", "2231")
#: Modasc patterns whose last letter repeats.
MODASC_LAST_REPEATS = ("2132", "1212")
#: Primitive patterns.
PRIM_POOL = ("2321", "2132")

#: The 28 checks of `verify --suite all`, in suite order.
CHECK_TAGS = (
    "flats.roundtrip", "std.bijection", "burge.ascending", "burge.descending",
    "comp.112", "part.122", "dyck.312", "claesson.32-1",
    "omega.size", "omega.chains", "transport.213-231", "transport.321",
    "prim.stats", "std.stats",
    "equiv.single", "equiv.joint",
    "series.F", "series.prim122", "series.modasc122", "series.G",
    "transform.eq", "series.D", "series.modasc312", "series.motzkin",
    "stirling.identity", "ascents.2321", "insertion.221", "printed.sequences",
)

WORKLOADS = ("avoid", "enumerate", "verify")


@dataclass(frozen=True)
class Task:
    """One CLI invocation and the answer it must give: its exit code and
    either the exact stdout text or the sha256 of it."""

    argv: tuple[str, ...]
    code: int = 0
    stdout: str | None = None
    sha256: str | None = None


def cycle(workload: str) -> int:
    """Passes in one cycle of a workload's inputs.

    The entries of a pool differ in cost (at n=10, 2213 takes about half
    the time of 2321), so a run is whole cycles and its time is taken
    per cycle; otherwise the result would depend on where the seed
    starts.
    """
    return len(MODASC_LAST_ONCE) if workload == "avoid" else 1


def tasks(workload: str, seed: int = 0, index: int = 0) -> tuple[Task, ...]:
    """The tasks one child runs, in order.

    Only `avoid` has free input; `enumerate` and `verify` ignore the seed.
    """
    if workload == "avoid":
        # Child `index` of a run takes step t of the cycle and entry
        # t mod |pool| of each pool.  So every cycle runs the same three
        # task lists, the seed picks the one it starts with, and seed 0
        # starts with 2321, 2132 and 2321.
        step = (seed + index) % cycle(workload)
        once, repeats, prim = (
            pool[step % len(pool)]
            for pool in (MODASC_LAST_ONCE, MODASC_LAST_REPEATS, PRIM_POOL)
        )
        return (
            Task(("count", "--n", "10", "--avoid", once), stdout=f"{BELL_10}\n"),
            Task(("count", "--n", "10", "--avoid", repeats), stdout=f"{BELL_10}\n"),
            Task(("count", "--class", "prim", "--n", "10", "--avoid", prim),
                 stdout=f"{BELL_9}\n"),
        )
    if workload == "enumerate":
        return (
            Task(("--cap", "11", "count", "--n", "11"), stdout=f"{FISHBURN_11}\n"),
            Task(("generate", "--n", "10"), sha256=GENERATE_10_SHA256),
        )
    if workload == "verify":
        return (Task(("verify", "--suite", "all", "--n", "8"), sha256=VERIFY_8_SHA256),)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
