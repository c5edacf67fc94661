"""The straight-line reference and the historical entries that match it."""

import pytest

from repro.core.models import Model, required_registers
from repro.core.pressure import pressure_report
from repro.pipeline import pipelines
from repro.pipeline.pipelines import clear_memo, run_evaluation, run_pressure
from repro.pipeline.policies import SPILL_POLICIES
from repro.spill.spiller import evaluate_loop
from repro.workloads.kernels import example_loop, make_kernel
from repro.workloads.synthetic import generate_loop


class TestKnobs:
    def test_unknown_knobs_rejected_eagerly(self, paper_l6):
        loop = make_kernel("daxpy")
        for knob, message in (
            ("pressure_strategy", "pressure strategy"),
            ("victim_policy", "victim policy"),
            ("ii_escalation", "escalation"),
        ):
            with pytest.raises(ValueError, match=message):
                run_evaluation(
                    loop, paper_l6, Model.UNIFIED, 16, **{knob: "nope"}
                )

    def test_spills_until_the_budget_fits(self, paper_l6):
        evaluation = run_evaluation(
            make_kernel("state_equation"), paper_l6, Model.UNIFIED, 16
        )
        assert evaluation.spilled_values > 0
        assert evaluation.fits
        assert evaluation.requirement.registers <= 16

    def test_ideal_model_never_spills(self, paper_l6):
        evaluation = run_evaluation(
            make_kernel("state_equation"), paper_l6, Model.IDEAL, 4
        )
        assert evaluation.spilled_values == 0
        assert evaluation.ii_increases == 0
        assert evaluation.fits

    def test_mii_is_the_loop_as_written(self, paper_l6):
        """Spilling adds ops, but the reported MII stays the loop's own."""
        loop = make_kernel("state_equation")
        evaluation = run_evaluation(loop, paper_l6, Model.UNIFIED, 8)
        assert evaluation.spilled_values > 0
        assert evaluation.mii == run_pressure(loop, paper_l6).mii

    def test_requirement_tracks_model(self, paper_l6):
        loop = generate_loop(9)
        for model in Model:
            evaluation = run_evaluation(loop, paper_l6, model, None)
            assert evaluation.requirement.model is model
            assert evaluation.requirement.registers == (
                required_registers(evaluation.schedule, model).registers
            )

    def test_increase_ii_reschedules_instead_of_spilling(self, paper_l6):
        loop = make_kernel("state_equation")
        evaluation = run_evaluation(
            loop,
            paper_l6,
            Model.UNIFIED,
            16,
            pressure_strategy="increase_ii",
        )
        assert evaluation.spilled_values == 0
        assert evaluation.ii_increases > 0
        assert evaluation.ii > run_pressure(loop, paper_l6).ii
        assert evaluation.fits
        assert evaluation.requirement.registers <= 16

    def test_gives_up_once_the_requirement_stops_shrinking(self, paper_l6):
        evaluation = run_evaluation(
            make_kernel("state_equation"),
            paper_l6,
            Model.UNIFIED,
            1,
            pressure_strategy="increase_ii",
        )
        assert evaluation.spilled_values == 0
        assert evaluation.ii_increases > 0
        assert not evaluation.fits
        assert evaluation.requirement.registers > 1

    def test_round_cap_verdict_reads_the_last_measured_round(self, paper_l6):
        """One round spills once; the verdict is the measured round's."""
        loop = make_kernel("state_equation")
        evaluation = run_evaluation(
            loop, paper_l6, Model.UNIFIED, 16, max_rounds=1
        )
        assert evaluation.spilled_values == 1
        assert not evaluation.fits
        assert evaluation.requirement.registers == (
            run_pressure(loop, paper_l6).unified
        )


class TestEquivalence:
    """The historical entry points and the reference agree."""

    def test_pressure_report_matches_run_pressure(self, paper_l6):
        loop = generate_loop(7)
        via_wrapper = pressure_report(loop, paper_l6)
        via_reference = run_pressure(loop, paper_l6)
        assert (
            via_wrapper.unified,
            via_wrapper.partitioned,
            via_wrapper.swapped,
            via_wrapper.mii,
            via_wrapper.max_live,
            via_wrapper.ii,
        ) == (
            via_reference.unified,
            via_reference.partitioned,
            via_reference.swapped,
            via_reference.mii,
            via_reference.max_live,
            via_reference.ii,
        )

    def test_evaluate_loop_matches_run_evaluation(self, paper_l6):
        loop = generate_loop(11)
        for model in (Model.UNIFIED, Model.SWAPPED):
            via_wrapper = evaluate_loop(
                loop, paper_l6, model, register_budget=24
            )
            via_reference = run_evaluation(
                loop, paper_l6, model, register_budget=24
            )
            assert (
                via_wrapper.ii,
                via_wrapper.spilled_values,
                via_wrapper.ii_increases,
                via_wrapper.fits,
                via_wrapper.requirement.registers,
            ) == (
                via_reference.ii,
                via_reference.spilled_values,
                via_reference.ii_increases,
                via_reference.fits,
                via_reference.requirement.registers,
            )


    @pytest.mark.parametrize("policy", list(SPILL_POLICIES))
    def test_chain_matches_reference_for_each_policy(self, paper_l6, policy):
        loop = make_kernel("state_equation")
        for model, budget in ((Model.UNIFIED, 16), (Model.PARTITIONED, 8)):
            via_chain = evaluate_loop(
                loop, paper_l6, model, budget, victim_policy=policy
            )
            via_reference = run_evaluation(
                loop, paper_l6, model, budget, victim_policy=policy
            )
            assert via_chain.spilled_values > 0
            assert (
                via_chain.ii,
                via_chain.spilled_values,
                via_chain.ii_increases,
                via_chain.fits,
                via_chain.requirement.registers,
            ) == (
                via_reference.ii,
                via_reference.spilled_values,
                via_reference.ii_increases,
                via_reference.fits,
                via_reference.requirement.registers,
            )


class TestMemo:
    def test_cold_and_warm_memo_agree(self, paper_l6):
        """A memo hit must be bit-identical to a recomputation."""
        loop = generate_loop(3)
        clear_memo()
        cold = run_evaluation(loop, paper_l6, Model.UNIFIED, 24)
        warm = run_evaluation(loop, paper_l6, Model.UNIFIED, 24)
        assert warm.schedule is cold.schedule  # the memoized schedule
        clear_memo()
        again = run_evaluation(loop, paper_l6, Model.UNIFIED, 24)
        assert again.schedule is not cold.schedule
        assert again.schedule.placements == cold.schedule.placements
        assert (
            again.ii,
            again.spilled_values,
            again.ii_increases,
            again.fits,
            again.requirement.registers,
        ) == (
            cold.ii,
            cold.spilled_values,
            cold.ii_increases,
            cold.fits,
            cold.requirement.registers,
        )

    def test_models_share_the_first_schedule(self, paper_l6, monkeypatch):
        loop = generate_loop(5)
        calls = []
        original = pipelines.modulo_schedule

        def counting(graph, machine, min_ii=1):
            calls.append((graph, min_ii))
            return original(graph, machine, min_ii=min_ii)

        clear_memo()
        monkeypatch.setattr(pipelines, "modulo_schedule", counting)
        for model in (
            Model.IDEAL,
            Model.UNIFIED,
            Model.PARTITIONED,
            Model.SWAPPED,
        ):
            run_evaluation(loop, paper_l6, model, register_budget=64)
        assert [c for c in calls if c[0] is loop.graph] == [(loop.graph, 1)]

    def test_pressure_and_evaluation_share_schedule(self, paper_l3):
        loop = example_loop()
        report = run_pressure(loop, paper_l3)
        evaluation = run_evaluation(
            loop, paper_l3, Model.UNIFIED, register_budget=None
        )
        assert report.schedule is evaluation.schedule

    def test_memo_is_bounded(self, paper_l6, monkeypatch):
        monkeypatch.setattr(pipelines, "MEMO_SIZE", 3)
        clear_memo()
        for index in range(4):
            run_pressure(generate_loop(index), paper_l6)
        assert len(pipelines._memo) == 3
        clear_memo()

    def test_memo_is_keyed_by_content(self, paper_l6):
        """Two separately built copies of a loop share one schedule."""
        clear_memo()
        first = run_pressure(make_kernel("daxpy"), paper_l6)
        second = run_pressure(make_kernel("daxpy"), paper_l6)
        assert second.loop is not first.loop
        assert second.schedule is first.schedule

    def test_memo_separates_machines(self, paper_l3, paper_l6):
        loop = make_kernel("daxpy")
        on_l3 = run_pressure(loop, paper_l3)
        on_l6 = run_pressure(loop, paper_l6)
        assert on_l3.schedule is not on_l6.schedule

    def test_clear_memo_forgets_everything(self, paper_l6):
        run_pressure(generate_loop(2), paper_l6)
        assert pipelines._memo
        clear_memo()
        assert not pipelines._memo
