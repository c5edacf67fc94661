"""Content fingerprints of loops, graphs, and machines.

These hashes identify *what* is being compiled, independently of object
identity, display names, or which process computed them.  Two layers build
on them:

* the dict reference (:mod:`repro.pipeline.pipelines`) keys its memoized
  MIIs and schedules by content, so structurally identical inputs share
  them;
* the engine (:mod:`repro.engine.jobs`) folds them into job cache keys.

Hashes are SHA-256 over a canonical JSON payload, so they are stable across
processes and interpreter runs (unlike :func:`hash`, which is randomized).
Fingerprints are memoized per object in :class:`weakref.WeakKeyDictionary`
maps: drivers reuse the same :class:`~repro.ir.loop.Loop` and
:class:`~repro.machine.config.MachineConfig` instances across hundreds of
evaluations, and re-serializing the graph each time would dominate warm
paths.  Content is hashed at first sight -- don't mutate a graph after
handing it to the reference or the engine.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from repro.ir.ddg import DependenceGraph
from repro.ir.loop import Loop
from repro.ir.operation import Immediate, InvariantRef, ValueRef
from repro.machine.config import MachineConfig


def _operand_token(operand: object) -> list:
    if isinstance(operand, ValueRef):
        return ["v", operand.producer, operand.distance]
    if isinstance(operand, InvariantRef):
        return ["i", operand.name]
    if isinstance(operand, Immediate):
        return ["c", operand.value]
    raise TypeError(f"unknown operand {operand!r}")  # pragma: no cover


_graph_fingerprints: "WeakKeyDictionary[DependenceGraph, str]" = (
    WeakKeyDictionary()
)
_machine_fingerprints: "WeakKeyDictionary[MachineConfig, str]" = (
    WeakKeyDictionary()
)


def graph_fingerprint(graph: DependenceGraph) -> str:
    """Content hash of a dependence graph.

    Covers everything that influences scheduling and allocation -- operation
    types, operand wiring, spill flags, explicit edges -- and deliberately
    excludes display names, so structurally identical loops share cache
    entries regardless of how they were labelled.
    """
    cached = _graph_fingerprints.get(graph)
    if cached is not None:
        return cached
    payload = {
        "ops": [
            [
                op.op_id,
                op.optype.value,
                [_operand_token(o) for o in op.operands],
                op.symbol,
                op.is_spill,
            ]
            for op in graph.operations
        ],
        "edges": [
            [e.src, e.dst, e.kind.value, e.distance, e.min_delay]
            for e in graph.extra_edges()
        ],
    }
    result = digest(payload)
    _graph_fingerprints[graph] = result
    return result


_loop_fingerprints: "WeakKeyDictionary[DependenceGraph, dict[int, str]]" = (
    WeakKeyDictionary()
)


def loop_fingerprint(loop: Loop) -> str:
    """Content hash of a loop: its graph plus the trip-count weight.

    Memoized per ``(graph, trip_count)`` -- :class:`~repro.ir.loop.Loop`
    itself is an unhashable value dataclass, but its graph is the identity
    that matters (the engine derives each job key once and reuses it for
    both the cache probe and the store, so a cold grid point serializes its
    graph exactly once).
    """
    per_graph = _loop_fingerprints.get(loop.graph)
    if per_graph is None:
        per_graph = {}
        _loop_fingerprints[loop.graph] = per_graph
    cached = per_graph.get(loop.trip_count)
    if cached is None:
        cached = digest(
            {"graph": graph_fingerprint(loop.graph), "trips": loop.trip_count}
        )
        per_graph[loop.trip_count] = cached
    return cached


def machine_fingerprint(machine: MachineConfig) -> str:
    """Content hash of a machine configuration (name excluded)."""
    cached = _machine_fingerprints.get(machine)
    if cached is not None:
        return cached
    payload = {
        "pools": [[p.name, p.count] for p in machine.pools],
        "pool_of": sorted(
            [t.value, p] for t, p in machine.pool_of.items()
        ),
        "latency": sorted(
            [t.value, l] for t, l in machine.latency.items()
        ),
        "clusters": machine.n_clusters,
    }
    result = digest(payload)
    _machine_fingerprints[machine] = result
    return result


def digest(payload: object) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    # Imported on the first hash: importing the engine or the proof does
    # not load them.
    import hashlib
    import json

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


__all__ = [
    "digest",
    "graph_fingerprint",
    "loop_fingerprint",
    "machine_fingerprint",
]
