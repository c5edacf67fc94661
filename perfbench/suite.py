"""Seeded, size-stratified Perfect-Club-like suites for the benchmark rounds.

Every round of every workload evaluates one suite: the hand-written
kernels of ``perfect_club_like`` plus synthetic loops drawn from
``perfect_club_like(n, seed)`` in generation order.  A synthetic loop is
kept only while its op-count band still has room, so every round has the
generator's size mix whatever the seed.

Loops below ``HEAVY_OPS`` operations come from a suite seeded by the
benchmark seed and the round.  Loops from ``HEAVY_OPS`` up -- about 9% of
the synthetic loops and most of the time -- come from one suite seeded by
the workload alone: every round of every seed evaluates the same heavy
loops.  Why: per-loop cost spans four orders of magnitude, and within one
op-count band the heavy loops' cost still varies by a factor of two or more
(a loop that cannot fit 32 registers walks ~120 spill states).  A run has
time for only ~100 of them, so drawing them per seed moved the cold grid
rate by ~15%, the proof p99 by ~25% and peak memory by ~15% from seed to
seed; drawing them per round made a run's mix depend on how many rounds
the host had time for.

The band shares are the generator's own op-count distribution, measured
once over 20000 loops (5 seeds x 4000), and are scaled to the round size.
"""

from __future__ import annotations

import hashlib
import math
import random

#: Op-count band edges and the generator's share of loops in each band.
#: Above 20 ops the bands narrow: the few loops there hold most of the time.
BAND_EDGES = (0, 6, 9, 12, 16, 20, 24, 28, 34, 40, 48, 56, 64, 72, 80, 88)
BAND_SHARES = (
    0.3416, 0.1771, 0.1008, 0.0925, 0.0636, 0.0428, 0.0318, 0.0383,
    0.0226, 0.0254, 0.0157, 0.0092, 0.0086, 0.0086, 0.0107, 0.0111,
)

#: Bands from this op count up are drawn from the workload's fixed suite.
HEAVY_OPS = 40

#: Paper machine latency of every workload (``repro.bench.LATENCY``).
LATENCY = 6

#: ``(suite seed, suite size, index)``: a loop named as ``repro serve``
#: names it, ``perfect_club_like(size, seed)[index]``.
LoopRef = tuple[int, int, int]


def band_of(n_ops: int) -> int:
    """Index of the op-count band ``n_ops`` falls in."""
    band = 0
    for index, edge in enumerate(BAND_EDGES):
        if n_ops >= edge:
            band = index
    return band


def quotas(n_synthetic: int) -> list[int]:
    """Integer loops per band summing to ``n_synthetic`` (largest remainder)."""
    raw = [share * n_synthetic / sum(BAND_SHARES) for share in BAND_SHARES]
    counts = [int(x) for x in raw]
    by_remainder = sorted(
        range(len(raw)), key=lambda b: (counts[b] - raw[b], b)
    )
    for band in by_remainder[: n_synthetic - sum(counts)]:
        counts[band] += 1
    return counts


def round_seed(seed: "int | str", workload: str, round_index: int) -> int:
    """Suite seed of one round, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{workload}:{round_index}".encode())
    return int.from_bytes(digest.digest()[:4], "big")


def _draw(seed: int, room: list[int]) -> list[tuple[LoopRef, object]]:
    """Synthetic loops of ``perfect_club_like(n, seed)`` filling ``room``."""
    from repro.workloads import suite as workloads_suite
    from repro.workloads.kernels import kernel_names

    if not any(room):
        return []
    first = len(kernel_names())
    # Enough loops that each band fills with ~3 sigma to spare, so the
    # suite is rarely generated twice.
    n_loops = first + max(
        math.ceil((n + 3 * math.sqrt(n)) / BAND_SHARES[band])
        for band, n in enumerate(room)
        if n
    )
    while True:
        source = workloads_suite.perfect_club_like(n_loops, seed=seed)
        left = list(room)
        kept = []
        for index in range(first, len(source.loops)):
            loop = source.loops[index]
            band = band_of(len(loop.graph.operations))
            if left[band]:
                left[band] -= 1
                kept.append(((seed, n_loops, index), loop))
        if not any(left):
            return kept
        n_loops += n_loops // 2


def stratified_suite(
    seed: int, workload: str, round_index: int, n_synthetic: int,
    n_kernels: "int | None" = None,
) -> tuple[list, list[LoopRef]]:
    """Loops of one round and how ``repro serve`` names each of them.

    ``n_kernels`` keeps only the first kernels (all by default).
    """
    from repro.workloads.kernels import all_kernels

    want = quotas(n_synthetic)
    heavy = band_of(HEAVY_OPS)
    light = [n if band < heavy else 0 for band, n in enumerate(want)]
    drawn = _draw(round_seed(seed, workload, round_index), light)
    drawn += _draw(round_seed("heavy", workload, 0), [
        n if band >= heavy else 0 for band, n in enumerate(want)
    ])
    kernels = all_kernels()[:n_kernels]
    # Kernels come first in every perfect_club_like suite.
    seed_of_light, size_of_light, _index = drawn[0][0]
    return (
        kernels + [loop for _ref, loop in drawn],
        [(seed_of_light, size_of_light, k) for k in range(len(kernels))]
        + [ref for ref, _loop in drawn],
    )


def serve_bodies(refs: list[LoopRef], shuffle_seed: int) -> list[dict]:
    """The ``mixed`` serve shape: every grid point twice, seeded shuffle.

    A grid point is one of ``repro.bench.bench_grid``'s Figure 8/9 points
    (Ideal plus models x budgets) of one suite loop, named by reference.
    """
    from repro.bench import bench_grid

    machine = {"kind": "paper", "latency": LATENCY}
    bodies = []
    for (seed, n_loops, index), _machine, model, budget in bench_grid(
        refs, None
    ):
        bodies.append(
            {
                "loop": {
                    "kind": "suite",
                    "n_loops": n_loops,
                    "seed": seed,
                    "index": index,
                },
                "machine": machine,
                "model": model.value,
                "register_budget": budget,
            }
        )
    bodies = bodies + bodies
    random.Random(shuffle_seed).shuffle(bodies)
    return bodies
