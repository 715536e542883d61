"""Tests for the batched multi-LP subsystem (repro.batch)."""

import numpy as np
import pytest

from repro.batch import (
    DEFAULT_CONTEXT_SETUP_SECONDS,
    ConcurrentSchedule,
    LPTimeline,
    SequentialSchedule,
    WARM_START_METHODS,
    make_schedule,
    solve_batch,
    solve_batch_chain,
)
from repro.errors import SolverError, UnknownMethodError
from repro.gpu.device import Device, TimelineEvent
from repro.lp.generators import random_dense_lp
from repro.perfmodel.presets import GTX280_PARAMS
from repro.solve import solve


@pytest.fixture(scope="module")
def workload():
    """Six small dense LPs, enough to exercise multi-stream scheduling."""
    return [random_dense_lp(16, 24, seed=300 + i) for i in range(6)]


# ---------------------------------------------------------------------------
# LPTimeline
# ---------------------------------------------------------------------------


class TestLPTimeline:
    def test_from_events_totals(self):
        p = GTX280_PARAMS
        cap = float(p.concurrent_threads)
        events = [
            TimelineEvent("htod", "transfer", 5e-4, nbytes=1024),
            TimelineEvent("kernel", "big", 2e-3, threads=p.concurrent_threads),
            TimelineEvent("kernel", "tiny", 1e-3, threads=1),
            TimelineEvent("kernel", "memset", 1e-4, threads=p.concurrent_threads),
            TimelineEvent("dtoh", "transfer", 3e-4, nbytes=512),
        ]
        tl = LPTimeline.from_events(3, events, p)
        assert tl.index == 3
        assert tl.kernel_launches == 3
        assert tl.transfer_seconds == pytest.approx(8e-4)
        assert tl.device_seconds == pytest.approx(2e-3 + 1e-3 + 1e-4)
        assert tl.total_seconds == pytest.approx(tl.transfer_seconds + tl.device_seconds)
        # big kernel and the memset fill the device (util 1), tiny floors
        # at min_fill
        tiny_util = max(p.min_fill, 1.0 / cap)
        assert tl.busy_seconds == pytest.approx(2e-3 + 1e-3 * tiny_util + 1e-4)
        assert tl.busy_seconds < tl.device_seconds

    def test_from_modeled_seconds_is_opaque_block(self):
        tl = LPTimeline.from_modeled_seconds(1, 0.25)
        assert tl.kernel_launches == 0
        assert tl.transfer_seconds == 0.0
        assert tl.busy_seconds == tl.device_seconds == tl.total_seconds == 0.25


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def _block_timelines(n, seconds=0.1):
    return [LPTimeline.from_modeled_seconds(i, seconds) for i in range(n)]


class TestSequentialSchedule:
    def test_makespan_is_the_sum(self):
        out = SequentialSchedule().plan(_block_timelines(4, 0.1))
        assert out.makespan_seconds == pytest.approx(0.4)
        assert out.sequential_seconds == pytest.approx(0.4)
        assert out.n_streams == 1
        assert out.speedup_vs_sequential == pytest.approx(1.0)


class TestConcurrentSchedule:
    def test_cpu_blocks_split_across_workers(self):
        # 8 identical fully-utilizing blocks over 4 workers: perfect 4x
        out = ConcurrentSchedule(n_streams=4).plan(_block_timelines(8, 0.1))
        assert out.n_streams == 4
        assert out.makespan_seconds == pytest.approx(0.2)
        assert out.speedup_vs_sequential == pytest.approx(4.0)

    def test_streams_clamped_to_batch_size(self):
        out = ConcurrentSchedule(n_streams=64).plan(_block_timelines(3, 0.1))
        assert out.n_streams == 3

    def test_single_stream_equals_sequential(self):
        tls = _block_timelines(5, 0.1)
        seq = SequentialSchedule().plan(tls)
        conc = ConcurrentSchedule(n_streams=1).plan(tls)
        assert conc.makespan_seconds == pytest.approx(seq.makespan_seconds)

    def test_makespan_is_max_of_bounds(self):
        p = GTX280_PARAMS
        events = [
            TimelineEvent("htod", "transfer", 2e-4, nbytes=4096),
            TimelineEvent("kernel", "k", 1e-3, threads=256),
            TimelineEvent("dtoh", "transfer", 1e-4, nbytes=256),
        ]
        tls = [LPTimeline.from_events(i, events, p) for i in range(8)]
        out = ConcurrentSchedule().plan(tls, params=p)
        assert set(out.bounds) == {
            "copy-engine", "compute-capacity",
            "stream-critical-path", "launch-serialization",
        }
        assert out.makespan_seconds == pytest.approx(max(out.bounds.values()))
        assert out.binding_resource in out.bounds
        assert out.bounds[out.binding_resource] == pytest.approx(out.makespan_seconds)
        # every bound is a *lower* bound, strictly below the serial sum here
        assert out.makespan_seconds < out.sequential_seconds

    def test_bad_stream_count(self):
        with pytest.raises(SolverError):
            ConcurrentSchedule(n_streams=0)

    def test_binding_tie_is_deterministic(self):
        """Equal bounds: max() breaks the tie by declaration order, so the
        binding resource is stable run to run."""
        tls = _block_timelines(4, 0.1)
        out1 = ConcurrentSchedule(n_streams=4).plan(tls)
        out2 = ConcurrentSchedule(n_streams=4).plan(list(tls))
        assert out1.binding_resource == out2.binding_resource
        tied = [
            k for k, v in out1.bounds.items()
            if v == pytest.approx(out1.makespan_seconds)
        ]
        assert out1.binding_resource == tied[0]


class TestMakeSchedule:
    def test_names(self):
        assert isinstance(make_schedule("sequential"), SequentialSchedule)
        sched = make_schedule("concurrent", n_streams=3)
        assert isinstance(sched, ConcurrentSchedule)
        assert sched.n_streams == 3

    def test_unknown_name(self):
        with pytest.raises(SolverError, match="unknown schedule"):
            make_schedule("speculative")


# ---------------------------------------------------------------------------
# solve_batch
# ---------------------------------------------------------------------------


class TestSolveBatch:
    @pytest.mark.parametrize("schedule", ["sequential", "concurrent"])
    def test_matches_solo_solves(self, workload, schedule):
        batch = solve_batch(workload, method="gpu-revised", schedule=schedule)
        for item, lp in zip(batch.items, workload):
            solo = solve(lp, method="gpu-revised")
            assert item.result.status is solo.status
            assert item.result.objective == solo.objective
            assert item.result.iterations.total_iterations == solo.iterations.total_iterations

    def test_concurrent_beats_sequential(self, workload):
        seq = solve_batch(workload, method="gpu-revised", schedule="sequential")
        conc = solve_batch(workload, method="gpu-revised", schedule="concurrent")
        assert conc.outcome.makespan_seconds < seq.outcome.makespan_seconds
        assert conc.speedup_vs_sequential > 1.0
        assert conc.outcome.n_streams > 1

    def test_cpu_method_batches_as_blocks(self, workload):
        batch = solve_batch(
            workload, method="revised", schedule="concurrent", n_streams=3
        )
        assert batch.all_optimal
        assert batch.context_seconds == 0.0  # no GPU context to create
        assert batch.outcome.n_streams == 3
        assert batch.outcome.makespan_seconds < batch.outcome.sequential_seconds

    def test_gpu_context_charged_once(self, workload):
        batch = solve_batch(workload[:2], method="gpu-revised")
        assert batch.context_seconds == DEFAULT_CONTEXT_SETUP_SECONDS
        assert batch.modeled_seconds == pytest.approx(
            batch.context_seconds + batch.outcome.makespan_seconds
        )
        override = solve_batch(workload[:2], method="gpu-revised", context_seconds=0.0)
        assert override.context_seconds == 0.0

    def test_shared_device_is_caller_visible(self, workload):
        dev = Device(GTX280_PARAMS)
        batch = solve_batch(workload[:3], method="gpu-revised", device=dev)
        assert batch.all_optimal
        assert dev.timeline is not None  # recording was enabled on our device

    def test_result_container_protocol(self, workload):
        batch = solve_batch(workload[:3], method="gpu-revised")
        assert len(batch) == 3
        assert batch[0].name == workload[0].name
        assert [it.index for it in batch] == [0, 1, 2]
        assert batch.statuses == {"optimal": 3}
        assert batch.total_iterations == sum(
            it.result.iterations.total_iterations for it in batch
        )
        assert batch.throughput_lps > 0.0

    def test_kernel_breakdown_merged(self, workload):
        batch = solve_batch(workload[:2], method="gpu-revised")
        merged = batch.kernel_breakdown()
        assert merged
        assert sum(merged.values()) > 0.0

    def test_report_rendering(self, workload):
        batch = solve_batch(workload[:2], method="gpu-revised")
        assert "all optimal" in batch.summary()
        report = batch.render()
        assert workload[0].name in report
        assert "t_model" in report

    def test_empty_batch_rejected(self):
        with pytest.raises(SolverError, match="at least one"):
            solve_batch([])

    def test_non_problem_rejected(self, workload):
        with pytest.raises(TypeError, match="batch item 1"):
            solve_batch([workload[0], "not an lp"])

    def test_unknown_method(self, workload):
        with pytest.raises(UnknownMethodError):
            solve_batch(workload[:1], method="quantum")

    def test_unknown_schedule(self, workload):
        with pytest.raises(SolverError, match="unknown schedule"):
            solve_batch(workload[:1], schedule="speculative")

    def test_cpu_method_rejects_shared_device(self, workload):
        with pytest.raises(SolverError, match="gpu-"):
            solve(workload[0], method="revised", device=Device(GTX280_PARAMS))


# ---------------------------------------------------------------------------
# solve_batch(..., batch_gemv=True): the lockstep batched simplex
# ---------------------------------------------------------------------------


def _lockstep(problems, **kw):
    return solve_batch(
        problems, method="gpu-revised", schedule="concurrent",
        batch_gemv=True, **kw,
    )


class TestLockstep:
    def test_one_lp_makespan_is_the_solo_clock(self, workload):
        batch = _lockstep(workload[:1])
        solo = solve(workload[0], method="gpu-revised")
        assert batch.outcome.makespan_seconds == solo.timing.modeled_seconds
        assert batch.outcome.sequential_seconds == solo.timing.modeled_seconds
        assert batch.outcome.batched_launches_saved == 0

    def test_copies_issue_the_solo_launch_count(self, workload):
        solo = solve(workload[0], method="gpu-revised")
        launches = solo.extra["kernel_launches"]
        batch = _lockstep([workload[0]] * 5)
        # every step of every copy merges: B x solo launches become solo
        assert batch.outcome.batched_launches_saved == 4 * launches
        assert batch.outcome.makespan_seconds < solo.timing.modeled_seconds * 5

    def test_outcome_shape(self, workload):
        batch = _lockstep(workload)
        out = batch.outcome
        assert out.schedule == batch.schedule == "lockstep"
        assert out.n_streams == 1
        assert out.binding_resource == "stream-critical-path"
        assert out.bounds == {"stream-critical-path": out.makespan_seconds}
        assert 0.0 < out.transfer_seconds < out.makespan_seconds
        assert out.makespan_seconds < out.sequential_seconds
        assert "lockstep" in batch.summary()

    def test_results_match_solo_solves(self, workload):
        batch = _lockstep(workload)
        for item, lp in zip(batch.items, workload):
            solo = solve(lp, method="gpu-revised")
            assert item.result.objective == solo.objective
            assert (
                item.result.timing.modeled_seconds
                == solo.timing.modeled_seconds
            )

    def test_kernel_metrics_counted_once(self, workload):
        """Pricing the lockstep program records no launches of its own."""
        from repro import metrics

        with metrics.collecting() as reg:
            batch = _lockstep(workload[:3])
            snap = reg.snapshot()
        series = snap["metrics"]["repro_gpu_kernel_launches_total"]["series"]
        assert sum(e["value"] for e in series) == sum(
            it.result.extra["kernel_launches"] for it in batch
        )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"schedule": "sequential"}, "schedule='concurrent'"),
            ({"schedule": "concurrent", "n_streams": 2}, "n_streams"),
            ({"schedule": "concurrent", "method": "revised"}, "device method"),
        ],
        ids=["sequential", "n_streams", "host-method"],
    )
    def test_rejected_combinations(self, workload, kwargs, match):
        with pytest.raises(SolverError, match=match):
            solve_batch(workload[:2], batch_gemv=True, **kwargs)

    def test_beats_the_unbatched_concurrent_schedule(self):
        """8 fp32 random_dense_lp(64, 96): the median lockstep makespan over
        three batches is below the median stream-interleaved one."""
        lock, conc = [], []
        for base in (0, 100, 200):
            lps = [random_dense_lp(64, 96, seed=base + i) for i in range(8)]
            lock.append(
                _lockstep(lps, dtype=np.float32).outcome.makespan_seconds
            )
            conc.append(
                solve_batch(
                    lps, method="gpu-revised", schedule="concurrent",
                    dtype=np.float32,
                ).outcome.makespan_seconds
            )
        assert float(np.median(lock)) < float(np.median(conc))


# ---------------------------------------------------------------------------
# solve_batch_chain
# ---------------------------------------------------------------------------


class TestSolveBatchChain:
    @pytest.fixture(scope="class")
    def scenarios(self):
        """A base LP plus cost-perturbed rescoring scenarios."""
        from repro.lp.problem import LPProblem

        base = random_dense_lp(16, 24, seed=77)
        rng = np.random.default_rng(9)
        out = [base]
        for s in range(4):
            out.append(
                LPProblem(
                    c=base.c * rng.uniform(0.9, 1.1, base.num_vars),
                    a=base.a_dense(), senses=base.senses, b=base.b,
                    bounds=base.bounds, maximize=base.maximize,
                    name=f"scenario-{s}",
                )
            )
        return out

    def test_warm_flags_and_correctness(self, scenarios):
        chain = solve_batch_chain(scenarios, method="revised")
        assert chain.all_optimal
        assert chain.schedule == "chain"
        assert not chain[0].warm_started
        assert all(it.warm_started for it in chain.items[1:])
        # warm starts never change the answers
        for item, lp in zip(chain.items, scenarios):
            assert item.result.objective == pytest.approx(
                solve(lp, method="revised").objective
            )

    def test_warm_start_saves_pivots(self, scenarios):
        chain = solve_batch_chain(scenarios, method="revised")
        cold = solve_batch(scenarios, method="revised")
        assert chain.total_iterations < cold.total_iterations

    def test_gpu_chain(self, scenarios):
        chain = solve_batch_chain(scenarios, method="gpu-revised")
        assert chain.all_optimal
        assert chain.context_seconds == DEFAULT_CONTEXT_SETUP_SECONDS

    def test_non_warm_start_method_rejected(self, scenarios):
        assert "tableau" not in WARM_START_METHODS
        with pytest.raises(SolverError, match="warm start"):
            solve_batch_chain(scenarios, method="tableau")

    def test_unbroken_chain_has_no_flags(self, scenarios):
        chain = solve_batch_chain(scenarios, method="revised")
        assert chain.chain_breaks == 0
        assert not any(it.chain_broken for it in chain.items)

    def test_chain_break_flagged_and_counted(self, scenarios):
        """A non-optimal intermediate LP breaks the warm-start chain: the
        item is flagged, the break is counted, and the next LP cold-starts
        instead of silently losing its warm start."""
        from repro import metrics
        from repro.lp.problem import LPProblem

        base = scenarios[0]
        # same shape as the rest of the chain (the basis hint must fit),
        # but b < 0 with A >= 0 and x >= 0: infeasible
        infeasible = LPProblem(
            c=base.c, a=base.a_dense(), senses=base.senses,
            b=-np.ones(base.num_constraints), bounds=base.bounds,
            maximize=base.maximize, name="broken-link",
        )
        lps = [scenarios[0], infeasible, scenarios[1]]
        with metrics.collecting() as reg:
            chain = solve_batch_chain(lps, method="revised")
            snap = reg.snapshot()
        assert [it.chain_broken for it in chain.items] == [False, True, False]
        assert chain.chain_breaks == 1
        # the LP after the break got no basis to start from
        assert not chain[2].warm_started
        # ...and the break reached the metrics counter
        counter = snap["metrics"]["repro_batch_chain_breaks_total"]
        assert counter["series"][0]["labels"] == {"method": "revised"}
        assert counter["series"][0]["value"] == 1.0
        # the rendered table says so too
        assert "broken" in chain.render()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestBatchCLI:
    def test_random_batch(self, capsys):
        from repro.cli import main

        assert main([
            "batch", "--random", "4", "--rows", "12", "--cols", "16",
            "--schedule", "concurrent",
        ]) == 0
        out = capsys.readouterr().out
        assert "batch of 4 LPs" in out
        assert "optimal" in out

    def test_chain_flag(self, capsys):
        from repro.cli import main

        assert main([
            "batch", "--random", "3", "--rows", "10", "--cols", "14",
            "--chain", "--method", "revised",
        ]) == 0
        assert "chain" in capsys.readouterr().out

    def test_mps_paths(self, tmp_path, capsys):
        from repro.cli import main
        from repro.lp.mps import write_mps

        paths = []
        for i in range(2):
            p = tmp_path / f"lp{i}.mps"
            write_mps(random_dense_lp(8, 12, seed=i), p)
            paths.append(str(p))
        assert main(["batch", *paths]) == 0
        assert "batch of 2 LPs" in capsys.readouterr().out

    def test_needs_input(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="batch needs"):
            main(["batch"])
