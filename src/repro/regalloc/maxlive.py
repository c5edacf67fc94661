"""MaxLive: the classic lower bound on register requirements.

In the steady state of a modulo-scheduled loop a new instance of every loop
variant is created each II cycles, so at kernel cycle ``c`` (0 <= c < II) the
number of live instances of a variant with lifetime ``[s, e)`` is::

    |{ k : s <= c + k*II < e }|  =  ceil((e - c) / II) - ceil((s - c) / II)

MaxLive is the maximum over kernel cycles of the summed live counts; no
allocation can use fewer registers, and Rau et al. [15] report first-fit
wands-only allocation achieving MaxLive or MaxLive + 1 on virtually all
loops.  The swapping pass uses per-cluster MaxLive as its cheap estimator
(paper, Section 5.2: "a lower bound ... found by computing the maximum number
of values that are alive at any cycle of the schedule").
"""

from __future__ import annotations

from typing import Iterable

from repro.regalloc.lifetimes import Lifetime


def live_at(lifetime: Lifetime, cycle: int, ii: int) -> int:
    """Number of simultaneously live instances of one variant at a kernel
    cycle (0 <= cycle < II)."""
    # ceil((end - c) / II) - ceil((start - c) / II), in integer arithmetic.
    return max(0, (cycle - lifetime.start) // ii - (cycle - lifetime.end) // ii)


def live_profile(lts: Iterable[Lifetime], ii: int) -> list[int]:
    """Total live values at each kernel cycle ``0 .. II-1``.

    Sums :func:`live_at` over the variants at every cycle; the formula is
    inlined because this scan is the reference swap search's estimator.
    A lifetime never ends before it starts, so no term is negative.
    """
    spans = [(lt.start, lt.end) for lt in lts]
    return [
        sum((c - start) // ii - (c - end) // ii for start, end in spans)
        for c in range(ii)
    ]


def max_live(lts: Iterable[Lifetime], ii: int) -> int:
    """Lower bound on registers required by a set of lifetimes."""
    profile = live_profile(lts, ii)
    return max(profile) if profile else 0


def average_live(lts: Iterable[Lifetime], ii: int) -> float:
    """Average live values per cycle = sum of lifetimes / II."""
    total = sum(lt.length for lt in lts)
    return total / ii if ii else 0.0


__all__ = ["average_live", "live_at", "live_profile", "max_live"]
