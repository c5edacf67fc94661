"""Calibrated synthetic loop generator (Perfect Club substitute).

The paper schedules ~800 floating-point inner loops extracted from the
Perfect Club benchmarks.  Those dependence graphs are unavailable, so this
generator produces seeded, reproducible loops with the structural features
that drive register pressure in such suites:

* a heavy-tailed size distribution (many small loops, few large ones);
* realistic operation mixes (balanced add/mul, occasional divisions,
  load/arithmetic ratios of FP code after scalar optimization);
* dataflow shaped between *chains* (long dependent paths, long lifetimes)
  and *wide* independent trees (high ILP, many concurrent lifetimes);
* optional loop-carried recurrences (accumulators, first/second-order
  filters) with distances 1-2;
* every computed value is eventually consumed (dead code does not survive
  the compilers the paper extracted graphs from);
* lognormal trip counts, positively correlated with loop size so that
  high-pressure loops carry a large share of execution time -- the property
  behind the paper's Figure 7 and the "49.1% of cycles above 64 registers"
  observation for P2L6.

Calibration targets (unified model; ``repro.report.expected`` and the
report's paper-delta table): fractions of loops allocatable with 16/32/64
registers in the neighbourhood of the paper's Table 1 for P1L3 .. P2L6.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.ir.builder import InvariantRef, LoopBuilder, Value
from repro.ir.loop import Loop
from repro.ir.operation import ValueRef


@dataclass(frozen=True)
class SizeClass:
    """One stratum of the loop-size mixture."""

    name: str
    weight: float
    min_arith: int
    max_arith: int


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic generator (defaults are the calibrated set)."""

    size_classes: tuple[SizeClass, ...] = (
        SizeClass("small", 0.52, 2, 7),
        SizeClass("medium", 0.34, 8, 18),
        SizeClass("large", 0.14, 19, 42),
    )
    #: When set (the calibrated default), arithmetic-op counts are drawn
    #: lognormally instead of from ``size_classes``:
    #: ``round(exp(N(size_mu, size_sigma)))`` clipped to
    #: ``[size_min, size_max]``.  A lognormal matches the shallow cumulative
    #: distributions of the paper's Figures 6/7 better than a mixture.
    size_mu: float | None = 1.35
    size_sigma: float = 1.15
    size_min: int = 2
    size_max: int = 40
    #: Probability that a binary operand is a fresh load instead of a value.
    load_operand_prob: float = 0.28
    #: Probability that a binary operand is a loop invariant.
    invariant_operand_prob: float = 0.26
    #: Operation mix among arithmetic nodes.
    mul_prob: float = 0.42
    sub_prob: float = 0.16
    div_prob: float = 0.06
    #: Chain bias: probability of consuming the *most recent* value
    #: (creates long dependent chains; the complement picks uniformly,
    #: creating width and overlapping lifetimes).
    chain_bias: float = 0.45
    #: Probability a loop carries an accumulator-style recurrence.
    recurrence_prob: float = 0.28
    #: Probability a recurrence has distance 2 instead of 1.
    recurrence_distance2_prob: float = 0.15
    #: Trip-count lognormal parameters.
    trip_mu: float = 4.6
    trip_sigma: float = 1.1
    #: Extra trip weight per arithmetic op (pressure/time correlation).
    trip_size_gain: float = 0.025
    max_trip: int = 50_000


#: The calibrated configuration, built once (it is frozen).
_DEFAULT_CONFIG = SyntheticConfig()


def _pick_size(rng: random.Random, config: SyntheticConfig) -> SizeClass:
    total = sum(c.weight for c in config.size_classes)
    r = rng.random() * total
    acc = 0.0
    for cls in config.size_classes:
        acc += cls.weight
        if r <= acc:
            return cls
    return config.size_classes[-1]


def generate_loop(
    index: int,
    seed: int = 20061995,
    config: SyntheticConfig | None = None,
) -> Loop:
    """Generate the ``index``-th synthetic loop of a seeded family."""
    config = config or _DEFAULT_CONFIG
    rng = random.Random(f"{seed}:{index}")
    b = LoopBuilder(f"synthetic-{index:04d}")

    if config.size_mu is not None:
        n_arith = round(math.exp(rng.gauss(config.size_mu, config.size_sigma)))
        n_arith = max(config.size_min, min(config.size_max, n_arith))
        size_name = "lognormal"
    else:
        size = _pick_size(rng, config)
        n_arith = rng.randint(size.min_arith, size.max_arith)
        size_name = size.name

    values: list[Value] = []
    n_invariants = 1 + rng.randint(0, 3)
    invariants = [f"c{k}" for k in range(n_invariants)]
    n_seed_loads = max(1, round(n_arith * rng.uniform(0.25, 0.55)))
    load_count = 0
    for _ in range(n_seed_loads):
        values.append(b.load(f"arr{load_count}"))
        load_count += 1

    # Optional recurrences are threaded through ordinary arithmetic by
    # binding a placeholder to a late value.
    placeholders = []
    if rng.random() < config.recurrence_prob:
        ph = b.placeholder()
        distance = 2 if rng.random() < config.recurrence_distance2_prob else 1
        placeholders.append((ph, distance))

    def pick_value() -> Value:
        if values and (rng.random() < config.chain_bias):
            return values[-1]
        return rng.choice(values)

    def pick_operand() -> Value | InvariantRef:
        r = rng.random()
        if r < config.load_operand_prob:
            nonlocal load_count
            v = b.load(f"arr{load_count}")
            load_count += 1
            values.append(v)
            return v
        if r < config.load_operand_prob + config.invariant_operand_prob:
            return b.inv(rng.choice(invariants))
        return pick_value()

    recurrence_used = False
    for i in range(n_arith):
        r = rng.random()
        a = pick_value()
        # Place the recurrence placeholder as an operand of a middle op.
        if placeholders and not recurrence_used and i >= n_arith // 3:
            second = placeholders[0][0]
            recurrence_used = True
        else:
            second = pick_operand()
        if r < config.mul_prob:
            v = b.mul(a, second)
        elif r < config.mul_prob + config.sub_prob:
            v = b.sub(a, second)
        elif r < config.mul_prob + config.sub_prob + config.div_prob:
            v = b.div(a, second)
        else:
            v = b.add(a, second)
        values.append(v)

    for ph, distance in placeholders:
        if recurrence_used:
            b.bind(ph, values[-1], distance=distance)
        else:  # tiny loop: attach the recurrence to the final value
            combined = b.add(ph, values[-1])
            values.append(combined)
            b.bind(ph, combined, distance=distance)

    _store_sinks(b, values, rng)

    trips = _trip_count(rng, n_arith, config)
    return b.build(
        trip_count=trips,
        source=f"synthetic ({size_name}, {n_arith} arith ops)",
    )


def _store_sinks(b: LoopBuilder, values: list[Value], rng: random.Random) -> None:
    """Store every value that nothing consumes (no dead code).

    Mirrors real loop bodies: results either feed later operations or are
    written back.  A few sinks are merged before storing to keep the
    store count realistic.
    """
    consumed = _consumed_ids(b)
    sinks = [v for v in values if v.op_id not in consumed]
    if not sinks:
        sinks = [values[-1]]
    # Merge surplus sinks pairwise so stores stay a realistic fraction.
    max_stores = max(1, 1 + len(values) // 8)
    while len(sinks) > max_stores:
        a = sinks.pop(rng.randrange(len(sinks)))
        c = sinks.pop(rng.randrange(len(sinks)))
        sinks.append(b.add(a, c))
    for idx, sink in enumerate(sinks):
        b.store(sink, f"out{idx}")


def _consumed_ids(b: LoopBuilder) -> set[int]:
    consumed: set[int] = set()
    for op in b._graph.operations:
        for operand in op.operands:
            if isinstance(operand, ValueRef):
                consumed.add(operand.producer)
    return consumed


def _trip_count(
    rng: random.Random, n_arith: int, config: SyntheticConfig
) -> int:
    mu = config.trip_mu + config.trip_size_gain * n_arith
    trips = int(math.exp(rng.gauss(mu, config.trip_sigma)))
    return max(4, min(config.max_trip, trips))


def generate_suite(
    n_loops: int,
    seed: int = 20061995,
    config: SyntheticConfig | None = None,
) -> list[Loop]:
    """A reproducible family of ``n_loops`` synthetic loops."""
    return [generate_loop(i, seed=seed, config=config) for i in range(n_loops)]


__all__ = [
    "SizeClass",
    "SyntheticConfig",
    "generate_loop",
    "generate_suite",
]
