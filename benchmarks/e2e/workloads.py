"""The benchmark's workloads: seeded inputs, the timed public calls, the
modeled-clock results and the correctness oracle.

A *request* is one public call a user makes: one ``solve()``, one
``solve_batch()``, or one job served by the fleet.  Each workload builds a
fixed list of *calls* from the seed.  The first pass over that list yields
every modeled-clock number, so the modeled metrics depend only on the seed,
never on how fast the host is.  Later passes repeat the same calls and only
add host-time samples.

``run.py`` imports this module only in its worker processes, which have
the checkout's ``src`` on the path.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable, Sequence

import numpy as np

from repro.bench.harness import relative_error, scipy_reference
from repro.lp.generators import band_lp, random_dense_lp, random_sparse_lp
from repro.perfmodel.presets import GTX280_PARAMS
from repro.serve.job import JobState
from repro.serve.traces import synthetic_trace
from repro.status import SolveStatus

#: Objective relative error and primal infeasibility a request may show.
TOL = 1e-6

#: Order fixes the per-workload seed stream, so keep new names at the end.
NAMES = ("dense-paper", "sparse-lu", "batch-fused", "serve-fleet")

#: Serve-fleet: the rate ladder (jobs/s), the reference rate the latency
#: metrics are taken at, and the latency limit and drain limit that define
#: the highest sustainable rate.  The reference rate loads the fleet to
#: about three quarters: at 2000 jobs/s (0.95) the latency percentiles
#: moved by 11-12% between seeds, too much for a regression bound.
LADDER = (1000, 1500, 2000, 2250, 2500, 3000)
REFERENCE_RATE = 1000
LATENCY_LIMIT_S = 0.015
DRAIN_LIMIT_S = 0.015

#: Plan sections of the GPU backends reported as modeled seconds.
GPU_SECTIONS = ("pricing", "ftran", "ratio", "update")
BINDING_RESOURCES = (
    "copy-engine", "compute-capacity", "stream-critical-path",
    "launch-serialization",
)
REJECT_REASONS = ("memory", "queue-full", "deadline")
#: Sizes of the ``dense.gpu_speedup`` metrics, and of the smoke run.
DENSE_SIZES = (64, 128, 192, 256)
#: Dense-paper sizes: a fine ladder, so the modeled-time distribution has
#: no gaps a percentile could sit in and jump between seeds.
DENSE_LADDER = tuple(range(64, 257, 16))


def _facade():
    """The façade module, looked up per call so the tracer's patches apply
    (``repro.solve`` the package attribute is the function, not the
    module)."""
    return sys.modules["repro.solve"]


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-quantile by nearest rank (numpy's ``inverted_cdf``).

    It never interpolates, so +inf samples (refused jobs) stay +inf misses
    instead of turning a percentile into NaN.
    """
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    """Instance seeds drawn from (workload, seed): the same seed gives the
    same inputs, and the workloads never share an instance stream."""
    rng = np.random.default_rng([NAMES.index(workload), seed])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def check_solve(lp, result, reference: "float | None") -> "str | None":
    """Why ``result`` is not a correct answer to ``lp``, or ``None``."""
    if result.status is not SolveStatus.OPTIMAL:
        return f"{lp.name}: status {result.status.value}"
    if reference is None:
        return f"{lp.name}: HiGHS found no optimum"
    err = relative_error(result.objective, reference)
    if not err <= TOL:
        return f"{lp.name}: objective relative error {err:.3g}"
    scale = max(1.0, float(np.max(np.abs(lp.b), initial=0.0)))
    violation = lp.constraint_violation(result.x) / scale
    if not violation <= TOL:
        return f"{lp.name}: primal infeasibility {violation:.3g}"
    return None


class _References:
    """HiGHS objectives, computed once per distinct problem object."""

    def __init__(self) -> None:
        self._cache: dict[int, "float | None"] = {}

    def check(self, lp, result) -> "str | None":
        key = id(lp)
        if key not in self._cache:
            self._cache[key] = scipy_reference(lp)
        return check_solve(lp, result, self._cache[key])


def solve_layer_metrics(results) -> dict[str, float]:
    """Solver, device, plan and LU counters summed over a set of solves."""
    out = {
        "solver.iterations_total": 0.0,
        "solver.phase1_iterations_total": 0.0,
        "solver.degenerate_steps_total": 0.0,
        "solver.refactorizations_total": 0.0,
        "gpu.kernel_launches_total": 0.0,
        "gpu.launch_overhead_modeled_s": 0.0,
        "gpu.kernel_modeled_s": 0.0,
        "gpu.transfer_modeled_s": 0.0,
        "gpu.kernel_bytes_total": 0.0,
        "plan.fused_launches_total": 0.0,
        "plan.fused_ops_total": 0.0,
        "plan.fusion_saved_modeled_s": 0.0,
        "precision.refinement_steps_total": 0.0,
    }
    for name in GPU_SECTIONS:
        out[f"gpu.section_modeled_s.{name}"] = 0.0
    lu = {"fill_ratio": [], "lu_nnz": [], "eta_nnz": []}
    for r in results:
        it = r.iterations
        out["solver.iterations_total"] += it.total_iterations
        out["solver.phase1_iterations_total"] += it.phase1_iterations
        out["solver.degenerate_steps_total"] += it.degenerate_steps
        out["solver.refactorizations_total"] += it.refactorizations
        extra = r.extra
        if "kernel_launches" in extra:
            launches = extra["kernel_launches"]
            out["gpu.kernel_launches_total"] += launches
            out["gpu.launch_overhead_modeled_s"] += (
                launches * GTX280_PARAMS.launch_overhead
            )
            out["gpu.kernel_modeled_s"] += sum(extra["by_kernel"].values())
            out["gpu.transfer_modeled_s"] += r.timing.transfer_seconds
            out["gpu.kernel_bytes_total"] += extra.get("kernel_bytes", 0.0)
            for name in GPU_SECTIONS:
                out[f"gpu.section_modeled_s.{name}"] += (
                    r.timing.kernel_breakdown.get(name, 0.0)
                )
        out["plan.fused_launches_total"] += extra.get("fused_launches", 0)
        out["plan.fused_ops_total"] += extra.get("fused_ops", 0)
        out["plan.fusion_saved_modeled_s"] += extra.get(
            "fusion_saved_seconds", 0.0
        )
        out["precision.refinement_steps_total"] += extra.get(
            "refinement_steps", 0
        )
        for key, samples in lu.items():
            if key in extra:
                samples.append(float(extra[key]))
    for key, samples in lu.items():
        out[f"lu.{key}_p50"] = nearest_rank(samples, 0.5) if samples else 0.0
    return out


class Workload:
    """One workload: a fixed list of calls built from the seed.

    Subclasses set ``name`` and implement :meth:`build`, :meth:`samples`,
    :meth:`identity`, :meth:`check` and :meth:`results`; :meth:`layers` adds
    workload-specific modeled counters.  A call returns an *outcome*;
    ``samples(outcome, seconds)`` turns it into the host seconds and the
    modeled seconds of each request the call served.
    """

    name = "?"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.calls: list[Callable[[], Any]] = []

    def build(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """One request, so lazy imports and first-call set-up are paid
        before the timed phase."""
        self.calls[0]()

    def samples(self, outcome, seconds: float) -> tuple[list, list]:
        raise NotImplementedError

    def identity(self, outcome) -> tuple:
        """What a repeated call must reproduce exactly."""
        raise NotImplementedError

    def check(self, outcomes: list) -> tuple[int, int, list[str]]:
        """(attempted, failed, reasons) over the first pass."""
        raise NotImplementedError

    def results(self, outcomes: list) -> list:
        """Every ``SolveResult`` the first pass produced."""
        raise NotImplementedError

    def layers(self, outcomes: list) -> dict[str, float]:
        return {}

    def extra_passes(self, outcomes: list) -> dict[str, float]:
        """Modeled counters that need more than the first pass (the serve
        rate ladder); run untimed, in traced runs only."""
        return {}


class _SolveWorkload(Workload):
    """Closed loop, one client: each call is one ``solve()``."""

    methods: tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.problems: list = []
        self._refs = _References()

    def _add(self, lp) -> None:
        self.problems.append(lp)
        for method in self.methods:
            self.calls.append(
                lambda lp=lp, method=method: (
                    lp, _facade().solve(lp, method=method)
                )
            )

    def samples(self, outcome, seconds):
        return [seconds], [outcome[1].timing.modeled_seconds]

    def identity(self, outcome):
        r = outcome[1]
        return (r.status, r.objective, r.timing.modeled_seconds)

    def check(self, outcomes):
        reasons = []
        for lp, result in outcomes:
            why = self._refs.check(lp, result)
            if why is not None:
                reasons.append(f"{result.solver}: {why}")
        return len(outcomes), len(reasons), reasons

    def results(self, outcomes):
        return [r for _, r in outcomes]


class DensePaper(_SolveWorkload):
    """The paper's experiment: square random dense LPs solved by the GPU
    revised simplex and by the CPU revised simplex, both at defaults."""

    name = "dense-paper"
    methods = ("gpu-revised", "revised")

    def build(self):
        count = 4 if self.smoke else 12 * len(DENSE_LADDER)
        sizes = DENSE_SIZES if self.smoke else DENSE_LADDER
        for i, s in enumerate(_seeds(self.name, self.seed, count)):
            m = sizes[i % len(sizes)]
            self._add(random_dense_lp(m, m, seed=s))

    def layers(self, outcomes):
        gpu: dict[int, float] = {}
        cpu: dict[int, float] = {}
        for lp, r in outcomes:
            side = gpu if r.solver.startswith("gpu") else cpu
            m = lp.num_constraints
            side[m] = side.get(m, 0.0) + r.timing.modeled_seconds
        return {
            f"dense.gpu_speedup.m{m}": cpu[m] / gpu[m] if m in gpu else 0.0
            for m in DENSE_SIZES
            if m in cpu
        }


class SparseLU(_SolveWorkload):
    """Sparse LPs on the simulated device, through the host-side
    Gilbert–Peierls LU and eta file."""

    name = "sparse-lu"
    # Only the device method: the host method's modeled times sit an order
    # of magnitude below it, and with half the requests on each side the
    # median fell into the gap and jumped by a fifth between seeds.
    methods = ("gpu-revised-sparse",)

    def build(self):
        count = 8 if self.smoke else 120
        # Random patterns (7 nonzeros a row) fill in; the band barely does.
        shapes = (
            lambda s: random_sparse_lp(60, 90, density=0.08, seed=s),
            lambda s: random_sparse_lp(80, 120, density=0.06, seed=s),
            lambda s: band_lp(128, bandwidth=5, seed=s),
        )
        for i, s in enumerate(_seeds(self.name, self.seed, count)):
            self._add(shapes[i % len(shapes)](s))


class BatchFused(Workload):
    """Closed loop: each call is one ``solve_batch`` of small dense LPs with
    fusion, batched GEMV and mixed precision on."""

    name = "batch-fused"
    batch_size = 8

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self._refs = _References()

    @staticmethod
    def _solve(lps):
        # Through the module attribute, like _facade(), for the tracer.
        return lps, sys.modules["repro.batch"].solve_batch(
            lps, method="gpu-revised", schedule="concurrent",
            fusion=True, batch_gemv=True, precision="mixed",
        )

    def build(self):
        count = 8 if self.smoke else 60
        seeds = _seeds(self.name, self.seed, count * self.batch_size)
        for b in range(count):
            lps = [
                random_dense_lp(64, 96, seed=s)
                for s in seeds[b * self.batch_size:(b + 1) * self.batch_size]
            ]
            self.calls.append(lambda lps=lps: self._solve(lps))

    def samples(self, outcome, seconds):
        # The modeled makespan without the batch's constant context set-up.
        return [seconds], [outcome[1].outcome.makespan_seconds]

    def identity(self, outcome):
        batch = outcome[1]
        return (
            batch.outcome.makespan_seconds,
            tuple((i.status, i.objective) for i in batch.items),
        )

    def check(self, outcomes):
        reasons = []
        failed = 0
        for lps, batch in outcomes:
            why = [self._refs.check(lp, item.result)
                   for lp, item in zip(lps, batch.items)]
            why = [w for w in why if w is not None]
            failed += bool(why)
            reasons.extend(why)
        return len(outcomes), failed, reasons

    def results(self, outcomes):
        return [item.result for _, batch in outcomes for item in batch.items]

    def layers(self, outcomes):
        util = []
        saved = 0
        binding = dict.fromkeys(BINDING_RESOURCES, 0)
        for _, batch in outcomes:
            o = batch.outcome
            util.append(o.sequential_seconds / (o.makespan_seconds * o.n_streams))
            saved += o.batched_launches_saved
            binding[o.binding_resource] += 1
        out = {
            "batch.stream_utilization_p50": nearest_rank(util, 0.5),
            "batch.batched_launches_saved_total": float(saved),
        }
        out.update({f"batch.binding.{k}": float(v) for k, v in binding.items()})
        return out


class ServeFleet(Workload):
    """Open loop on the simulated clock: synthetic arrival traces replayed
    through a 4-device fleet at the reference rate.  Each call is one
    replay; each served job is one request."""

    name = "serve-fleet"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.traces: list[list] = []
        self._refs = _References()
        self._ladder_seed = 0

    def _replay(self, trace):
        # Through the module attribute, like _facade(), for the tracer.
        service = sys.modules["repro.serve.service"]
        return service.serve_trace(trace, service.ServeConfig(n_devices=4))

    def build(self):
        n_traces, n_jobs = (1, 8) if self.smoke else (5, 256)
        trace_seeds = [s % 100_000 for s in _seeds(self.name, self.seed, n_traces)]
        self._ladder_seed = trace_seeds[0]
        for s in trace_seeds:
            trace = synthetic_trace(
                n_jobs, seed=s, mean_interarrival=1.0 / REFERENCE_RATE
            )
            self.traces.append(trace)
            self.calls.append(lambda trace=trace: (trace, self._replay(trace)))

    def warmup(self):
        self._replay(self.traces[0][:1])

    @staticmethod
    def _latency(job) -> float:
        if job.state is JobState.COMPLETED:
            return job.latency_seconds
        return math.inf

    def samples(self, outcome, seconds):
        # A served job's host time is the engine's wall time for its solve;
        # the replay's event loop shows in host_rps instead.
        jobs = outcome[1].jobs
        host = [j.result.timing.wall_seconds for j in jobs
                if j.result is not None]
        return host, [self._latency(j) for j in jobs]

    def identity(self, outcome):
        return tuple(self._latency(j) for j in outcome[1].jobs)

    def check(self, outcomes):
        reasons = []
        attempted = 0
        for trace, report in outcomes:
            for entry, job in zip(trace, report.jobs):
                attempted += 1
                if job.state is not JobState.COMPLETED:
                    reasons.append(f"job {job.job_id}: {job.state.value}")
                    continue
                why = self._refs.check(entry.problem, job.result)
                if why is not None:
                    reasons.append(why)
        return attempted, len(reasons), reasons

    def results(self, outcomes):
        return [j.result for _, rep in outcomes for j in rep.jobs
                if j.result is not None]

    def layers(self, outcomes):
        waits, lookups, hits, jobs, streams, util = [], 0, 0, 0, 0, []
        rejected = dict.fromkeys(REJECT_REASONS, 0)
        expired = 0
        for _, report in outcomes:
            for job in report.jobs:
                if job.state is JobState.REJECTED:
                    rejected[job.reject_reason] += 1
                elif job.state is JobState.EXPIRED:
                    expired += 1
                waits.append(
                    job.queue_seconds if job.queue_seconds is not None
                    else math.inf
                )
            lookups += report.cache.hits + report.cache.misses
            hits += report.cache.hits
            for dev in report.devices:
                jobs += dev.jobs_done
                streams += dev.dispatches * dev.n_streams
            util.extend(report.device_utilization().values())
        out = {
            "serve.queue_wait_p50_s": nearest_rank(waits, 0.5),
            "serve.queue_wait_p90_s": nearest_rank(waits, 0.9),
            "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "serve.window_fill": jobs / streams if streams else 0.0,
            "serve.device_utilization_mean": float(np.mean(util)),
            "serve.expired": float(expired),
        }
        out.update(
            {f"serve.rejected.{k}": float(v) for k, v in rejected.items()}
        )
        return out

    def extra_passes(self, outcomes):
        """The rate ladder over the first trace: p90 latency per rate (misses
        count as +inf) and the highest rate that meets the latency limit and
        drains within the drain limit of the last arrival."""
        n_jobs = len(self.traces[0])
        rates = (REFERENCE_RATE,) if self.smoke else LADDER
        out: dict[str, float] = {}
        max_rate = 0.0
        for rate in rates:
            if rate == REFERENCE_RATE:
                trace, report = outcomes[0]
            else:
                trace = synthetic_trace(
                    n_jobs, seed=self._ladder_seed, mean_interarrival=1.0 / rate
                )
                report = self._replay(trace)
            p90 = nearest_rank([self._latency(j) for j in report.jobs], 0.9)
            drain = report.span_seconds - trace[-1].at
            out[f"serve.p90_at_{rate}"] = p90
            if p90 <= LATENCY_LIMIT_S and drain <= DRAIN_LIMIT_S:
                max_rate = max(max_rate, float(rate))
        for rate in LADDER:
            out.setdefault(f"serve.p90_at_{rate}", 0.0)
        out["serve.max_rate_rps"] = max_rate
        return out


WORKLOADS = {
    cls.name: cls for cls in (DensePaper, SparseLU, BatchFused, ServeFleet)
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The named workload with its inputs built from ``seed``."""
    workload = WORKLOADS[name](seed, smoke)
    workload.build()
    return workload
