"""Fault-injection subsystem tests.

The acceptance bar: every fault class in the default campaign catalogue
(>= 5 classes, >= 20 seeded injections) fires AND is detected by an
invariant monitor, the scalar-reference oracle, or the LSU differential
check — and an armed-but-empty plan perturbs nothing.
"""

import pytest

from repro.compiler import Strategy, compile_loop
from repro.emu import run_program
from repro.memory import MemoryImage
from repro.verify import faults
from repro.verify.campaign import (
    default_catalogue,
    run_campaign,
    run_injection,
)
from repro.verify.faults import FaultClass, FaultPlan, FaultSpec
from repro.workloads import by_name


def _run_srv(workload, loop_name, n, seed=0):
    """Compile + emulate one loop under SRV; returns (arrays, metrics)."""
    spec = next(
        s for s in by_name(workload).loops if s.name == loop_name
    )
    arrays = spec.arrays(seed)
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
    program = compile_loop(spec.loop, mem, n, Strategy.SRV,
                           params=spec.params)
    metrics, _ = run_program(program, mem)
    out = {
        name: mem.load_array(mem.allocation(name)) for name in arrays
    }
    return out, metrics


class TestPlanMechanics:
    def test_unarmed_by_default(self):
        assert faults.ACTIVE is None

    def test_inject_arms_and_disarms(self):
        plan = FaultPlan([])
        with faults.inject(plan):
            assert faults.ACTIVE is plan
        assert faults.ACTIVE is None

    def test_inject_disarms_on_error(self):
        plan = FaultPlan([])
        with pytest.raises(ValueError):
            with faults.inject(plan):
                raise ValueError("boom")
        assert faults.ACTIVE is None

    def test_nested_inject_rejected(self):
        with faults.inject(FaultPlan([])):
            with pytest.raises(RuntimeError):
                with faults.inject(FaultPlan([])):
                    pass

    def test_empty_plan_changes_nothing(self):
        """An armed plan with no specs must be a behavioural no-op."""
        baseline, base_metrics = _run_srv("hmmer", "hmmer_viterbi_row", 64)
        with faults.inject(FaultPlan([])):
            armed, armed_metrics = _run_srv("hmmer", "hmmer_viterbi_row", 64)
        assert armed == baseline
        assert (armed_metrics.srv.replays, armed_metrics.dynamic_instructions) \
            == (base_metrics.srv.replays, base_metrics.dynamic_instructions)

    def test_spec_occurrence_counting(self):
        spec = FaultSpec(FaultClass.SKEW_LANE_ADDR, occurrence=2, lane=0)
        plan = FaultPlan([spec])
        # polls 0 and 1 do not match; poll 2 fires; poll 3 does not (one-shot)
        assert plan.perturb_addr(0x100, 0, is_store=False) == 0x100
        assert plan.perturb_addr(0x100, 0, is_store=False) == 0x100
        assert plan.perturb_addr(0x100, 0, is_store=False) == 0x100 + spec.delta
        assert plan.perturb_addr(0x100, 0, is_store=False) == 0x100
        assert len(plan.fired) == 1

    def test_repeat_spec_fires_every_poll(self):
        plan = FaultPlan([
            FaultSpec(FaultClass.SKEW_LANE_ADDR, repeat=True, lane=0)
        ])
        for _ in range(3):
            assert plan.perturb_addr(0x100, 0, is_store=False) != 0x100
        assert len(plan.fired) == 3

    def test_store_bit_flip(self):
        plan = FaultPlan([
            FaultSpec(FaultClass.CORRUPT_STORE_DATA, bit=3, lane=1,
                      repeat=True)
        ])
        assert plan.perturb_store_value(0, 4, lane=1) == 8
        assert plan.perturb_store_value(0, 4, lane=0) == 0  # wrong lane


class TestSingleInjections:
    def test_skew_addr_detected_by_oracle(self):
        from repro.verify.campaign import Injection

        inj = Injection(
            spec=FaultSpec(FaultClass.SKEW_LANE_ADDR, lane=1, delta=4,
                           repeat=True),
            workload="livermore", loop="livermore_k1_hydro", n=64,
        )
        result = run_injection(inj)
        assert result.fired
        assert result.detected, result.report.format_lines()

    def test_force_replay_detected(self):
        from repro.verify.campaign import Injection

        inj = Injection(
            spec=FaultSpec(FaultClass.FORCE_REPLAY, repeat=True),
            workload="hmmer", loop="hmmer_viterbi_row", n=64,
        )
        result = run_injection(inj)
        assert result.fired
        assert result.detected


class TestCampaign:
    def test_catalogue_meets_acceptance_floor(self):
        catalogue = default_catalogue()
        assert len(catalogue) >= 20
        classes = {inj.spec.fault for inj in catalogue}
        assert len(classes) >= 5

    def test_full_campaign_all_detected(self, monkeypatch):
        """Every seeded injection fires and is caught by some checker."""
        plans = []
        arm = faults.inject

        def inject(plan):
            plans.append(plan)
            return arm(plan)

        monkeypatch.setattr(faults, "inject", inject)
        result = run_campaign(default_catalogue())
        undetected = result.undetected()
        assert result.all_detected, result.format_table()
        assert undetected == []
        # every fault class is injected and caught
        assert {r.injection.spec.fault for r in result.results if r.ok} \
            == set(FaultClass)
        # each detection names the checker that caught it
        for r in result.results:
            assert r.detectors, r.injection
        # the needs-replay faults have one hook site, the emulator's
        # srv_end: a second, dead site would show up here
        sites = {
            fired.site for plan in plans for fired in plan.fired
            if fired.fault in (FaultClass.FLIP_NEEDS_REPLAY,
                               FaultClass.FORCE_REPLAY)
        }
        assert sites == {"emu.srv_end"}

    def test_world_is_clean_after_campaign(self):
        """The campaign must not leak an armed plan into later runs."""
        assert faults.ACTIVE is None
        out, metrics = _run_srv("hmmer", "hmmer_viterbi_row", 64)
        ref, ref_metrics = _run_srv("hmmer", "hmmer_viterbi_row", 64)
        assert out == ref
