"""Workload suites: the Perfect-Club-like collection used by experiments.

A :class:`Suite` is a named, ordered list of loops with trip-count weights.
The default experimental suite mixes the hand-written kernels of
:mod:`repro.workloads.kernels` with the calibrated synthetic family of
:mod:`repro.workloads.synthetic`, matching the scale of the paper's ~800
Perfect Club inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.ir.loop import Loop
from repro.workloads.kernels import kernel_names, make_kernel
from repro.workloads.synthetic import SyntheticConfig, generate_loop

#: Default size of the full experimental suite ("almost 800 loops").
DEFAULT_SUITE_SIZE = 800
DEFAULT_SEED = 20061995


@dataclass(frozen=True)
class Suite:
    """A named workload.

    ``seed`` records the synthetic-generation seed the suite was built
    from (``None`` for hand-assembled suites), so sweep jobs can name
    their workload reproducibly.
    """

    name: str
    loops: tuple[Loop, ...]
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self) -> Iterator[Loop]:
        return iter(self.loops)

    @property
    def total_trips(self) -> int:
        return sum(loop.trip_count for loop in self.loops)

    def subset(self, n: int, name: str | None = None) -> "Suite":
        """Deterministic stratified subset: every ceil(len/n)-th loop."""
        if n >= len(self.loops):
            return self
        step = len(self.loops) / n
        picked = tuple(
            self.loops[int(i * step)] for i in range(n)
        )
        return Suite(name or f"{self.name}-sub{n}", picked, seed=self.seed)


def perfect_club_like(
    n_loops: int = DEFAULT_SUITE_SIZE,
    seed: int = DEFAULT_SEED,
    include_kernels: bool = True,
    config: SyntheticConfig | None = None,
) -> Suite:
    """The Perfect-Club substitute suite.

    ``n_loops`` is the total size; the ~30 hand-written kernels are included
    first (when requested) and the remainder is synthetic, generated
    deterministically from ``seed`` -- same seed, same loops, in any
    process, which is what makes engine sweep jobs reproducible and
    cacheable across runs.  Loop ``i`` is :func:`suite_loop` ``(i, ...)``.
    """
    names = kernel_names() if include_kernels else []
    loops = tuple(
        _loop(index, names, seed, config) for index in range(n_loops)
    )
    name = f"perfect-club-like-{n_loops}"
    if seed != DEFAULT_SEED:
        name += f"-s{seed}"
    return Suite(name, loops, seed=seed)


def suite_loop(
    index: int,
    seed: int = DEFAULT_SEED,
    include_kernels: bool = True,
    config: SyntheticConfig | None = None,
) -> Loop:
    """Loop ``index`` of :func:`perfect_club_like`, for any ``n_loops > index``.

    Builds that one loop only: the ``index``-th kernel by
    :func:`~repro.workloads.kernels.kernel_names` order, else synthetic loop
    ``index - n_kernels`` of the seeded family -- each synthetic loop is
    seeded by its own index, so it needs none of its predecessors.
    """
    return _loop(
        index, kernel_names() if include_kernels else [], seed, config
    )


def _loop(
    index: int, names: list[str], seed: int, config: SyntheticConfig | None
) -> Loop:
    """Loop ``index`` of a suite whose kernels are ``names``, in order."""
    if index < len(names):
        return make_kernel(names[index])
    return generate_loop(index - len(names), seed=seed, config=config)


def quick_suite(n_loops: int = 80, seed: int = DEFAULT_SEED) -> Suite:
    """A small but representative suite for tests and fast benchmarks."""
    return perfect_club_like(n_loops=n_loops, seed=seed)


__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_SUITE_SIZE",
    "Suite",
    "perfect_club_like",
    "quick_suite",
    "suite_loop",
]
