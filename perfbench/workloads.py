"""Job and query lists of the benchmark, generated from the workload seed.

Nothing here imports the library: the lists are plain data so that the
parent process stays free of library state and every job runs cold in a
worker of its own.  Data the fixtures do not ship are defined inline as
(rank, simple roots, simple coroots) in the fixtures' coordinates: the
character lattice is Z^rank and simple coroots pair by the dot product.
"""

from __future__ import annotations

import random

INLINE_DATA = {
    # simply connected A3: coroots are the standard basis and each simple
    # root is the matching column of the Cartan matrix
    "sl4": (3, ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    "sl2xT2": (3, ((2, 0, 0),), ((1, 0, 0),)),
}

# Tables of each workload as (datum, bound); every run draws LABEL_SEEDS
# relabelings of each from its pool (label_pool), so no single label order
# sets a run's figures.  roundtrip-torus has five tables, so each weighs more
# in its figures and needs a third relabeling; two keep roundtrip-semisimple's
# run short.  g2@4 (6-10 s a job) is left out here to keep a run short; it
# runs in roundtrip-torus as a pinned job, whose order search is that of g2@4.
ROUNDTRIP_SEMISIMPLE = tuple(
    (name, bound)
    for name in ("sl2", "pgl2", "sl3", "pgl3", "sp4", "so5", "g2", "sl2xpgl2")
    for bound in (3, 4)
    if (name, bound) != ("g2", 4)
) + (("sl4", 2),)
ROUNDTRIP_TORUS = (("torus1", 4), ("torus2", 3), ("torus2", 4), ("gl2", 4), ("sl2xT2", 2))
LABEL_SEEDS = {"roundtrip-semisimple": 2, "roundtrip-torus": 3}

# A table's pool is the first POOL_SIZE label seeds of its own fixed stream,
# less the relabelings listed here, which ran past the deadline when every
# pool seed was run once (certification walks a box of the skewed basis's
# size, README.md known defect 3; sl4@2 784090 finishes after 40 s).  Left
# in, they made a run's failure count depend on which relabelings its seed
# drew.  The defect they share shows in every run through the pinned sl4@2
# job below, and the outcome of a label seed does not depend on the hash seed.
POOL_SIZE = 10
SLOW_RELABELINGS = {
    ("sp4", 4): (228676,),
    ("sl4", 2): (784090, 524132),
    ("sl2xT2", 2): (920619, 127605),
}

# Known defects kept in on purpose, one job each, in every run, and left out
# of the time and memory metrics:
#   g2@4, 3         the naive Smith normal form grows coefficients without
#                   limit, so the job runs into the deadline in stage lattice
#   sl4@2, 285521   certification's window box cannot be allocated: MemoryError
#   sl2xT2@2, 888598 and gl2@4, 230629
#                   certified correctly, but root_data_isomorphic finds no map
PINNED_JOBS = {
    "roundtrip-semisimple": (("sl4", 2, 285521),),
    "roundtrip-torus": (("g2", 4, 3), ("sl2xT2", 2, 888598), ("gl2", 4, 230629)),
}

QUERY_DATA = ("sl3", "sp4", "so5", "g2", "pgl3")
QUERY_MAX_PAIRING = 10

WORKLOADS = ("roundtrip-semisimple", "roundtrip-torus", "tensor-queries")


def label_pool(name: str, bound: int) -> list[int]:
    """The label seeds a run may draw for a table, the same in every run."""
    rng = random.Random(f"pool/{name}@{bound}")
    seeds = [rng.randrange(10**6) for _ in range(POOL_SIZE)]
    return [s for s in seeds if s not in SLOW_RELABELINGS.get((name, bound), ())]


def roundtrip_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's cold jobs in run order, each with its label seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "roundtrip-semisimple":
        tables = ROUNDTRIP_SEMISIMPLE
    elif workload == "roundtrip-torus":
        tables = ROUNDTRIP_TORUS
    else:
        raise ValueError(f"{workload} has no roundtrip jobs")
    drawn = {t: rng.sample(label_pool(*t), LABEL_SEEDS[workload]) for t in tables}
    # one pass over the tables per label seed, so a table's samples lie far
    # apart in time and a slow spell of the machine reaches few of them
    jobs = [
        {"datum": name, "bound": bound, "label_seed": drawn[name, bound][k]}
        for k in range(LABEL_SEEDS[workload])
        for name, bound in tables
    ]
    jobs += [
        {"datum": n, "bound": b, "label_seed": s, "pinned": True}
        for n, b, s in PINNED_JOBS[workload]
    ]
    return jobs


def query_stream(seed: int, weights: dict[str, list[tuple[int, ...]]]):
    """Endless seeded stream of (datum name, left weight, right weight).

    `weights` maps each name in QUERY_DATA to its dominant weights with every
    simple-coroot pairing at most QUERY_MAX_PAIRING, in a fixed order.  The
    data take turns.  Each datum goes through its weights in cycles: in every
    cycle each weight is the left factor of one query and the right factor
    of one, paired at random, so that every run asks queries of the same mix
    of sizes whatever its seed and length.
    """
    rng = random.Random(f"tensor-queries/{seed}")

    def cycles(ws):
        while True:
            yield from zip(rng.sample(ws, len(ws)), rng.sample(ws, len(ws)))

    streams = {name: cycles(weights[name]) for name in QUERY_DATA}
    while True:
        for name in QUERY_DATA:
            yield (name, *next(streams[name]))
