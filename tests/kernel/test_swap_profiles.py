"""The swap search's packed live profiles against the plain profile builders.

``swap._MaxLiveState`` keeps each cluster's live profile as one integer
with a fixed-width field per kernel cycle and updates it by adding or
subtracting a value's packed contribution.  Unpacked, every profile must
equal :func:`~repro.kernel.lifetimes.live_profile_spans` over the spans of
the cluster's member values, and the estimate must equal
:func:`~repro.kernel.dual.dual_max_live` -- under random assignments,
after every reassignment the search makes (candidates, applied swaps and
moves), and with lifetimes long enough to need wider fields.
"""

from __future__ import annotations

import random

import pytest

from repro.kernel import dual as kdual
from repro.kernel import swap as kswap
from repro.kernel.batch import LoopChain
from repro.kernel.lifetimes import live_profile_spans
from repro.machine.config import clustered_config, paper_config
from repro.workloads.synthetic import generate_loop

MACHINES = {
    "L3": paper_config(3),
    "L6": paper_config(6),
    "C4": clustered_config(4, 3),
}


def assert_profiles(state) -> None:
    """Every unpacked profile and the estimate against the builders."""
    la, ii = state.la, state.ii
    masks = kdual.membership_masks(la, state.asg)
    assert state.mem == masks
    for c in range(state.n_clusters):
        spans = [
            (state.starts[k], state.ends[k])
            for k, mask in enumerate(masks)
            if mask >> c & 1
        ]
        assert list(state.fields(c)) == live_profile_spans(spans, ii), c
    assert state.estimate() == kdual.dual_max_live(
        la, state.asg, state.starts, state.ends, ii
    )


def root_inputs(index: int, machine):
    root = LoopChain(generate_loop(index).graph, machine).root
    times, insts, ii = root.sched
    starts, ends = root.bounds
    return root, times, list(insts), ii, list(starts), list(ends)


class TestRandomAssignments:
    @pytest.mark.parametrize("name", sorted(MACHINES))
    @pytest.mark.parametrize("index", range(6))
    def test_profiles_follow_every_reassignment(self, name, index):
        machine = MACHINES[name]
        root, _times, _insts, ii, starts, ends = root_inputs(index, machine)
        la = root.la
        rng = random.Random(index)
        n_clusters = la.ma.n_clusters
        asg = [rng.randrange(n_clusters) for _ in range(la.n)]
        state = kswap._MaxLiveState(la, asg, starts, ends, ii)
        assert_profiles(state)
        for _ in range(40):
            state.set_cluster(rng.randrange(la.n), rng.randrange(n_clusters))
            assert_profiles(state)


class TestSearchSteps:
    @pytest.mark.parametrize("allow_moves", [False, True])
    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_profiles_after_every_search_step(
        self, monkeypatch, name, allow_moves
    ):
        class Checked(kswap._MaxLiveState):
            calls = 0

            def set_cluster(self, op: int, new_cluster: int) -> None:
                super().set_cluster(op, new_cluster)
                Checked.calls += 1
                assert_profiles(self)

        monkeypatch.setattr(kswap, "_MaxLiveState", Checked)
        machine = MACHINES[name]
        for index in range(8):
            root, times, insts, ii, starts, ends = root_inputs(index, machine)
            asg = list(root.asg)
            swaps, moves, _before, after = kswap.greedy_swap_search(
                root.la, ii, [t % ii for t in times], insts, asg,
                starts, ends, False, 1000, allow_moves,
            )
            assert after == kdual.dual_max_live(root.la, asg, starts, ends, ii)
        assert Checked.calls  # the search really reassigned ops


class TestFieldWidth:
    @pytest.mark.parametrize("whole,size", [(0, 1), (300, 2), (70_000, 4)])
    def test_long_lifetime_widens_fields(self, whole, size):
        machine = MACHINES["C4"]
        root, _times, _insts, ii, starts, ends = root_inputs(2, machine)
        la = root.la
        # Stretch the first value past ``whole`` full turns of the kernel
        # (plus a partial one): its own fields then exceed one byte.
        ends[0] = starts[0] + whole * ii + 1
        rng = random.Random(whole)
        asg = [rng.randrange(la.ma.n_clusters) for _ in range(la.n)]
        state = kswap._MaxLiveState(la, asg, starts, ends, ii)
        assert state.size == size
        assert_profiles(state)
        for _ in range(20):
            state.set_cluster(
                rng.randrange(la.n), rng.randrange(la.ma.n_clusters)
            )
            assert_profiles(state)
        assert state.estimate() >= whole
