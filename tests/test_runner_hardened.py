"""Hardened experiment runner: memo keying, resume through the disk cache
under one code version only, timeout, failures under the run's own seed,
and the typed oracle mismatch error."""

import pytest

from repro.common.config import TABLE_I
from repro.common.errors import (
    LsuOverflowError,
    OracleMismatchError,
    RunTimeoutError,
)
from repro.compiler import Strategy
from repro.experiments import runner
from repro.parallel import cache as cache_mod
from repro.parallel.cache import result_cache
from repro.workloads import by_name


@pytest.fixture(autouse=True)
def _fresh_runner_state():
    runner.clear_cache()
    runner.disable_disk_cache()
    yield
    runner.clear_cache()
    runner.disable_disk_cache()


def _spec(workload="gcc", index=0):
    return by_name(workload).loops[index]


class TestMemoisation:
    def test_cache_keys_on_config_value_not_identity(self, monkeypatch):
        """Two equal-but-distinct config objects must share a cache entry."""
        spec = _spec()
        config_a = TABLE_I.with_overrides(lsu_entries=TABLE_I.lsu_entries)
        config_b = TABLE_I.with_overrides(lsu_entries=TABLE_I.lsu_entries)
        assert config_a is not config_b and config_a == config_b

        run_a = runner.run_loop(spec, Strategy.SRV, config=config_a,
                                n_override=64)
        calls = []
        monkeypatch.setattr(
            runner, "_execute",
            lambda *a, **k: calls.append(1) or (_ for _ in ()).throw(
                AssertionError("re-executed an equal config")),
        )
        run_b = runner.run_loop(spec, Strategy.SRV, config=config_b,
                                n_override=64)
        assert not calls
        assert run_b.correct == run_a.correct
        assert run_b.pipe.cycles == run_a.pipe.cycles
        assert run_b.emu.dynamic_instructions == run_a.emu.dynamic_instructions

    def test_different_config_values_do_not_alias(self):
        spec = _spec()
        run_big = runner.run_loop(spec, Strategy.SRV, n_override=64)
        small = TABLE_I.with_overrides(vector_lanes=4)
        run_small = runner.run_loop(spec, Strategy.SRV, config=small,
                                    n_override=64)
        assert run_small.pipe.cycles != run_big.pipe.cycles
        assert len(result_cache()) == 2

    def test_cache_is_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(result_cache(), "max_memory", 4)
        spec = _spec()
        for seed in range(8):
            runner.run_loop(spec, Strategy.SCALAR, seed=seed, n_override=16,
                            timing=False)
        assert len(result_cache()) == 4
        # oldest seeds were evicted, newest survive
        seeds_cached = {key[2] for key in result_cache()._memory}
        assert seeds_cached == {4, 5, 6, 7}


class TestStaleResults:
    def test_code_version_change_reexecutes(self, tmp_path, monkeypatch):
        """A stored run resumes only under the code version it was made by."""
        spec = _spec()
        runner.enable_disk_cache(str(tmp_path))
        first = runner.run_loop(spec, Strategy.SRV, n_override=64)

        calls = []
        real_execute = runner._execute

        def spy(*args, **kwargs):
            calls.append(args)
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(runner, "_execute", spy)
        # a fresh process, same sources: the disk entry answers
        runner.clear_cache()
        runner.run_loop(spec, Strategy.SRV, n_override=64)
        assert calls == []

        # a fresh process after a simulator edit: the run re-executes
        runner.clear_cache()
        monkeypatch.setattr(cache_mod, "_CODE_VERSION", "0" * 64)
        second = runner.run_loop(spec, Strategy.SRV, n_override=64)
        assert len(calls) == 1
        assert second.pipe.cycles == first.pipe.cycles
        assert second.emu.dynamic_instructions \
            == first.emu.dynamic_instructions


class TestHardenedRunner:
    def test_timeout_raises_once_under_own_seed(self, monkeypatch):
        spec = _spec()
        seeds = []

        def slow_execute(spec, strategy, seed, *args, **kwargs):
            seeds.append(seed)
            raise RunTimeoutError("run exceeded 0.0s wall clock")

        monkeypatch.setattr(runner, "_execute", slow_execute)
        with pytest.raises(RunTimeoutError):
            runner.run_loop_hardened(spec, Strategy.SRV, seed=3,
                                     n_override=16)
        assert seeds == [3]

    def test_failure_propagates_without_reseed(self, monkeypatch):
        """A failed run raises; no attempt runs under a derived seed."""
        spec = _spec()
        seeds = []

        def failing_execute(spec, strategy, seed, *args, **kwargs):
            seeds.append(seed)
            raise LsuOverflowError("input-dependent pathology")

        monkeypatch.setattr(runner, "_execute", failing_execute)
        with pytest.raises(LsuOverflowError):
            runner.run_loop_hardened(
                spec, Strategy.SRV, seed=3, n_override=64,
                degrade_lsu_overflow=False,
            )
        assert seeds == [3]
        assert len(result_cache()) == 0

    def test_failures_do_not_mutate_cached_run(self, monkeypatch):
        spec = _spec()
        clean = runner.run_loop(spec, Strategy.SRV, seed=100, n_override=64)
        assert clean.failures == ()

        def failing(spec, strategy, seed, *args, **kwargs):
            raise RunTimeoutError("synthetic")

        monkeypatch.setattr(runner, "run_loop", failing)
        with pytest.raises(RunTimeoutError):
            runner.run_loop_hardened(spec, Strategy.SRV, seed=100,
                                     n_override=64)
        monkeypatch.undo()
        hardened = runner.run_loop_hardened(spec, Strategy.SRV, seed=100,
                                            n_override=64)
        assert hardened.failures == ()  # the failure left no trace
        assert hardened.pipe.cycles == clean.pipe.cycles
        assert clean.failures == ()


class TestOracleMismatch:
    def test_typed_error_carries_context(self, monkeypatch):
        spec = _spec()
        real_execute = runner._execute
        monkeypatch.setattr(
            runner, "_execute",
            lambda *a, **k: (*real_execute(*a, **k)[:2], False, "c"),
        )
        with pytest.raises(OracleMismatchError) as excinfo:
            runner.loop_speedup(spec, n_override=16)
        err = excinfo.value
        assert err.loop == spec.name
        assert err.array == "c"
        assert err.strategy in {s.value for s in Strategy}
        assert "scalar reference oracle" in str(err)


class TestDeadlineFallback:
    """SIGALRM bounds the main thread; everywhere else runs unbounded."""

    def _busy_wait(self, seconds: float = 5.0) -> None:
        # pure-Python spin: the alarm handler runs between bytecodes, so
        # this is guaranteed interruptible
        import time

        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            pass
        raise AssertionError("deadline never fired")

    def test_alarm_interrupts_main_thread_busy_loop(self):
        assert runner._alarm_usable()
        with pytest.raises(RunTimeoutError, match="wall clock"):
            with runner._deadline(0.05):
                self._busy_wait()

    def test_unbounded_off_main_thread(self):
        import threading
        import time

        outcome: dict = {}

        def worker() -> None:
            outcome["usable"] = runner._alarm_usable()
            with runner._deadline(0.001):
                time.sleep(0.01)  # outlives the budget; must not raise
            outcome["finished"] = True

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert outcome == {"usable": False, "finished": True}

    def test_unbounded_when_no_mechanism(self, monkeypatch):
        monkeypatch.setattr(runner, "_alarm_usable", lambda: False)
        with runner._deadline(0.001):
            total = sum(range(100_000))  # outlives the budget; must not raise
        assert total == 4999950000
