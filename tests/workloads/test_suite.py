"""Unit tests for workload suites."""

from repro.workloads.kernels import kernel_names
from repro.workloads.suite import Suite, perfect_club_like, quick_suite


class TestPerfectClubLike:
    def test_requested_size(self):
        suite = perfect_club_like(100)
        assert len(suite) == 100

    def test_kernels_included_first(self):
        suite = perfect_club_like(100)
        names = [loop.name for loop in suite][: len(kernel_names())]
        assert names == kernel_names()

    def test_kernels_can_be_excluded(self):
        suite = perfect_club_like(50, include_kernels=False)
        assert all(loop.name.startswith("synthetic") for loop in suite)

    def test_deterministic(self):
        a = perfect_club_like(60)
        b = perfect_club_like(60)
        assert [l.name for l in a] == [l.name for l in b]
        assert [l.trip_count for l in a] == [l.trip_count for l in b]

    def test_total_trips_positive(self):
        suite = quick_suite(20)
        assert suite.total_trips > 0

    def test_seed_recorded(self):
        assert perfect_club_like(20, seed=42).seed == 42
        assert perfect_club_like(20).seed is not None

    def test_nondefault_seed_in_name(self):
        assert "s42" in perfect_club_like(20, seed=42).name

    def test_subset_preserves_seed(self):
        assert perfect_club_like(20, seed=42).subset(5).seed == 42


class TestSubset:
    def test_subset_size(self):
        suite = perfect_club_like(100)
        sub = suite.subset(10)
        assert len(sub) == 10

    def test_subset_strided_across_suite(self):
        suite = perfect_club_like(100)
        sub = suite.subset(10)
        positions = [list(suite.loops).index(l) for l in sub.loops]
        assert positions[0] == 0
        assert positions[-1] >= 80  # reaches into the tail

    def test_subset_of_smaller_suite_is_identity(self):
        suite = perfect_club_like(20)
        assert suite.subset(50) is suite

    def test_subset_name(self):
        suite = Suite("s", perfect_club_like(30).loops)
        assert suite.subset(5).name == "s-sub5"


def suite_digest(n_loops: int, seed: int) -> str:
    """SHA-256 over every loop's structure in ``perfect_club_like``.

    Covers the name, trip count and source of each loop, every
    operation's id, name, type, operands, symbol and spill flag, and the
    explicit edges -- everything the generator decides.
    """
    import hashlib

    from repro.ir.operation import Immediate, InvariantRef, ValueRef

    def operand(o) -> str:
        if isinstance(o, ValueRef):
            return f"v{o.producer}@{o.distance}"
        if isinstance(o, InvariantRef):
            return f"i{o.name}"
        assert isinstance(o, Immediate)
        return f"k{o.value!r}"

    digest = hashlib.sha256()
    for loop in perfect_club_like(n_loops, seed=seed):
        lines = [f"loop {loop.name} {loop.trip_count} {loop.source!r}"]
        for op in loop.graph.operations:
            lines.append(
                f"op {op.op_id} {op.name} {op.optype.value} "
                f"{','.join(operand(o) for o in op.operands)} "
                f"{op.symbol} {op.is_spill}"
            )
        for e in loop.graph.extra_edges():
            lines.append(
                f"edge {e.src} {e.dst} {e.kind.value} {e.distance} "
                f"{e.min_delay} {e.position}"
            )
        digest.update("\n".join(lines).encode() + b"\n")
    return digest.hexdigest()


class TestSuiteDigest:
    """Every loop of ``perfect_club_like(800)`` is pinned, not a sample.

    The digests were taken before the IR builder and validator were
    tuned for speed; any change to the generator's random draws, the
    builder's id order or the operand encoding shows here.
    """

    DIGESTS = {
        20061995: "2ad21064f29d464f197b3d71d029000ac18ffc26a2cc7118621e90cfb1552006",
        1: "83cc32f1b49ab752b1a0688f96a5da10a3477b858b1c4e2d1212db29905ae1b8",
        424242: "131bf4f27b424d9b5d9d1b515fa22a1757ceaee84cbd64d5e7feaf04fc0ee54f",
    }

    def test_default_and_other_seeds(self):
        got = {seed: suite_digest(800, seed) for seed in self.DIGESTS}
        assert got == self.DIGESTS
