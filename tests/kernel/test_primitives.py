"""Kernel primitives against their closed-form/reference counterparts."""

from __future__ import annotations

import random

from repro.kernel.firstfit import BitOccupancy, first_fit_shift
from repro.kernel.lifetimes import live_profile_spans, max_live_spans
from repro.regalloc.firstfit import IntervalSet
from repro.regalloc.firstfit import first_fit_shift as legacy_shift
from repro.regalloc.lifetimes import Lifetime
from repro.regalloc.maxlive import live_at


class TestBitOccupancy:
    """Occupancy words, probed through the first-fit query."""

    def test_add_and_probe(self):
        occ = BitOccupancy()
        occ.add(3, 7)
        assert first_fit_shift(0, 3, 8, (occ,)) == 0  # below the interval
        assert first_fit_shift(3, 7, 1, (occ,)) == 4  # all four cells taken
        assert first_fit_shift(6, 10, 1, (occ,)) == 1  # only cell 6 taken
        assert first_fit_shift(7, 17, 1, (occ,)) == 0  # above the interval

    def test_negative_cells_rebias(self):
        occ = BitOccupancy()
        occ.add(-5, -2)
        occ.add(4, 6)
        assert (occ.bias, occ.word) == (-5, 0b11 << 9 | 0b111)
        assert first_fit_shift(-5, -2, 1, (occ,)) == 3
        assert first_fit_shift(-2, 4, 1, (occ,)) == 0
        assert first_fit_shift(2, 6, 1, (occ,)) == 4  # cells 4, 5 taken
        assert first_fit_shift(2, 6, 2, (occ,)) == 2
        # A window starting below the bias reads the word shifted up.
        assert first_fit_shift(-9, -4, 1, (occ,)) == 7

    def test_shift_matches_interval_set_on_disjoint_sets(self):
        # IntervalSet's contract requires disjoint contents (first-fit only
        # ever stores non-overlapping placements), so build them disjoint.
        rng = random.Random(42)
        for _ in range(200):
            ii = rng.randint(1, 7)
            occ_bits = BitOccupancy()
            occ_set = IntervalSet()
            cursor = 0
            for _ in range(rng.randint(0, 10)):
                start = cursor + rng.randint(0, 5)
                end = start + rng.randint(1, 9)
                cursor = end
                occ_bits.add(start, end)
                occ_set.add(start, end)
            start = rng.randint(0, 30)
            lt = Lifetime(0, start, start + rng.randint(1, 10))
            assert first_fit_shift(lt.start, lt.end, ii, (occ_bits,)) == (
                legacy_shift(lt, ii, (occ_set,))
            )

    def test_full_allocations_match_legacy(self):
        """Bitmask first-fit in ``first_fit``'s insertion order lands on
        the interval-set reference's shift for every lifetime."""
        from repro.regalloc.firstfit import first_fit

        rng = random.Random(9)
        for _ in range(60):
            ii = rng.randint(1, 6)
            lts = []
            for op_id in range(rng.randint(1, 14)):
                start = rng.randint(0, 20)
                lts.append(Lifetime(op_id, start, start + rng.randint(1, 25)))
            legacy = first_fit(lts, ii)
            occupied = BitOccupancy()
            for lt in sorted(lts, key=lambda l: (l.start, l.op_id)):
                shift = first_fit_shift(lt.start, lt.end, ii, (occupied,))
                occupied.add(lt.start + shift * ii, lt.end + shift * ii)
                assert legacy.placements[lt.op_id].shift == shift


class TestFirstFitShift:
    """The closed-form stride query against the interval-set reference."""

    @staticmethod
    def _random_sets(rng, n_sets):
        """``n_sets`` disjoint-content occupancies, mirrored both ways."""
        bits = [BitOccupancy() for _ in range(n_sets)]
        sets = [IntervalSet() for _ in range(n_sets)]
        for occ_bits, occ_set in zip(bits, sets):
            cursor = rng.randint(-40, 10)  # negative cells included
            for _ in range(rng.randint(0, 8)):
                start = cursor + rng.randint(0, 6)
                end = start + rng.randint(1, 12)
                cursor = end
                occ_bits.add(start, end)
                occ_set.add(start, end)
        return bits, sets

    def test_multi_set_queries_match_interval_sets(self):
        rng = random.Random(14)
        for _ in range(600):
            ii = rng.randint(1, 9)
            bits, sets = self._random_sets(rng, rng.randint(1, 3))
            start = rng.randint(-60, 90)  # below, inside and above
            lt = Lifetime(0, start, start + rng.randint(1, 30))
            assert first_fit_shift(lt.start, lt.end, ii, bits) == (
                legacy_shift(lt, ii, sets)
            ), (ii, lt)

    def test_windows_below_and_above_every_cell(self):
        rng = random.Random(3)
        for _ in range(200):
            ii = rng.randint(1, 9)
            bits, sets = self._random_sets(rng, rng.randint(1, 3))
            occupied = [
                (occ.bias, occ.bias + occ.word.bit_length())
                for occ in bits
                if occ.word
            ]
            lowest = min((lo for lo, _ in occupied), default=0)
            highest = max((hi for _, hi in occupied), default=0)
            length = rng.randint(1, 20)
            above = Lifetime(0, highest, highest + length)
            assert first_fit_shift(above.start, above.end, ii, bits) == 0
            assert legacy_shift(above, ii, sets) == 0
            below = Lifetime(0, lowest - length - rng.randint(0, 5), lowest)
            assert first_fit_shift(below.start, below.end, ii, bits) == (
                legacy_shift(below, ii, sets)
            )

    def test_zero_length_window_fits_at_once(self):
        # A zero-length window covers no cell (a Lifetime cannot even be
        # built for one), so no occupancy can block it.
        occ = BitOccupancy()
        occ.add(-3, 40)
        for cell in (-10, -3, 0, 39, 40, 100):
            assert first_fit_shift(cell, cell, 4, (occ,)) == 0
        assert first_fit_shift(5, 5, 1, ()) == 0

    def test_no_occupancy_fits_at_once(self):
        assert first_fit_shift(-7, 30, 3, ()) == 0
        assert first_fit_shift(2, 9, 5, (BitOccupancy(), BitOccupancy())) == 0


class TestLiveProfiles:
    def test_matches_live_at_scan(self):
        rng = random.Random(7)
        for _ in range(200):
            ii = rng.randint(1, 9)
            spans = []
            for _ in range(rng.randint(0, 10)):
                start = rng.randint(0, 25)
                spans.append((start, start + rng.randint(1, 30)))
            lts = [Lifetime(i, s, e) for i, (s, e) in enumerate(spans)]
            reference = [
                sum(live_at(lt, c, ii) for lt in lts) for c in range(ii)
            ]
            assert live_profile_spans(spans, ii) == reference
            assert max_live_spans(spans, ii) == (
                max(reference) if spans else 0
            )

    def test_empty(self):
        assert live_profile_spans([], 4) == [0, 0, 0, 0]
        assert max_live_spans([], 4) == 0

    def test_wrapping_remainder(self):
        # Length 3 at II=2: one whole copy everywhere plus a wrapped cycle.
        assert live_profile_spans([(0, 3)], 2) == [2, 1]
        assert live_profile_spans([(1, 4)], 2) == [1, 2]
