"""The repository benchmark: one command, four workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed.
``--trace 1`` first repeats part of the untraced measurement, then runs
rounds with spans on every layer entry point and prints the per-layer
metrics, the tracing overhead and the simulated-cycle attribution.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON report with the environment, the seed, sample counts and a
digest of every simulated output.  The exit code is non-zero when any
output was wrong.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import multiprocessing
import pathlib
import platform
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import spans, stats, workloads  # noqa: E402

#: rounds an untraced run measures at least, however long they take.
MIN_ROUNDS = 3
#: share of a traced run spent repeating the untraced measurement.
UNTRACED_SHARE = 1 / 3

END_TO_END_UNITS = {
    "setup_s": "s", "host_s": "s", "ops_per_s": "1/s",
    "req_us_p50": "us", "req_us_p99": "us",
    "sim_cycles_per_op": "cycles/op", "sim_s": "sim_s",
    "peak_rss_mb": "MB",
}


# ---- measurement ------------------------------------------------------------


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    return {"usable_cores": workloads.usable_cores(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "git_sha": git_sha()}


def hold_allocator_policy() -> None:
    """Keep glibc's large-allocation policy at its start-up setting.

    glibc raises its mmap threshold whenever a large block is freed, so
    after some rounds the megabyte arrays of a freshly booted kernel
    come from the heap and are zeroed eagerly, and a serve set-up
    costs several times what it cost in the first rounds.  A user boots
    one kernel per process and always sees the start-up policy; fixing
    the threshold at its default (128 KiB) keeps every round there.
    A no-op where the C library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(-3, 128 * 1024)                  # M_MMAP_THRESHOLD


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (the
    farm's workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def digest_of(rounds) -> str:
    payload = json.dumps(rounds[0].digest, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


class Run:
    """Setups and rounds of one workload, with their timings."""

    def __init__(self, workload):
        self.workload = workload
        self.setup_s: list[float] = []
        self.state = None

    def setup(self):
        begun = time.perf_counter()
        state = self.workload.setup()
        self.setup_s.append(time.perf_counter() - begun)
        return state

    def prepare(self) -> None:
        if not self.workload.setup_per_round:
            for _ in range(self.workload.setup_repeats):
                self.state = None            # free the previous state first
                self.state = self.setup()

    def one_round(self, measure=contextlib.nullcontext, **kwargs):
        if self.workload.setup_per_round:
            self.state = self.setup()
        with measure():
            result = self.workload.round(self.state, **kwargs)
        if self.workload.setup_per_round:
            self.state = None
            # A kernel is a web of reference cycles holding megabytes of
            # arrays; free it now, not whenever the collector next runs,
            # so peak memory does not depend on collector timing.
            gc.collect()
        return result

    def rounds(self, seconds: float, min_rounds: int, **kwargs) -> list:
        out = []
        begun = time.perf_counter()
        while (len(out) < min_rounds
               or time.perf_counter() - begun < seconds):
            out.append(self.one_round(**kwargs))
            if out[-1].errors:
                break            # a broken round says all there is to say
        return out


def fastest(rounds):
    """The round the host disturbed least.

    Other tenants of a shared host only ever slow a round down, and on
    small cloud hosts they do so for seconds at a time, so the median
    round of a run moves with the neighbours' load.  The fastest round
    does not.
    """
    return min(rounds, key=lambda r: r.host_s)


def latencies(rounds) -> list[float]:
    """The latency samples a run reports percentiles of.

    Every round repeats the same items (user sessions, farm jobs, trace
    replays) in the same order with the same simulated work, so an
    item's time varies across rounds only with host disturbance; its
    best time across rounds is its sample.
    """
    return [min(times) for times in zip(*(r.latencies_us for r in rounds))]


def host_seconds(run: Run, rounds) -> float:
    """Host seconds of a round's measured work, as undisturbed as a run
    can see it.

    Where a round runs its items one after another in this process
    (serve sessions, trace replays), the sum of each item's best time
    across rounds: the host's disturbances come and go within a
    second, so every item finds a quiet moment in some round, while a
    whole round rarely does.  Where the items overlap on the farm's
    workers (``table1``), the fastest round's wall time.
    """
    if run.workload.sequential_items:
        return sum(latencies(rounds)) / 1e6
    return fastest(rounds).host_s


def end_to_end(run: Run, rounds) -> dict:
    first = rounds[0]
    samples = latencies(rounds)
    host_s = host_seconds(run, rounds)
    return {
        "setup_s": statistics.median(run.setup_s),
        "host_s": host_s,
        "ops_per_s": first.ops / host_s,
        "req_us_p50": stats.percentile(samples, 50),
        "req_us_p99": stats.percentile(samples, 99),
        "sim_cycles_per_op": first.sim_cycles / first.sim_ops,
        "sim_s": first.sim_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def identity_failures(rounds) -> list[str]:
    """Every round must simulate exactly what the first one did."""
    want = json.dumps(rounds[0].digest, sort_keys=True, default=str)
    return [f"round {i}: simulated outputs differ from round 0"
            for i, r in enumerate(rounds)
            if json.dumps(r.digest, sort_keys=True, default=str) != want]


# ---- the traced run -----------------------------------------------------------

def per_layer(run: Run, untraced, traced, spans_delta, raw, gc_totals) -> dict:
    """Fold a traced phase into per-round per-layer numbers."""
    n = len(traced)
    self_time, calls, counts = spans_delta

    def self_s(span):
        return self_time.get(span, 0) / 1e9 / n

    def call_count(span):
        return calls.get(span, 0) / n

    def count(*keys):
        return sum(counts.get(k, 0) for k in keys) / n

    def raw_of(*keys):
        return sum(raw.get(k, 0) for k in keys) / n

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_median(key):
        values = [r.layer[key] for r in untraced if key in r.layer]
        return statistics.median(values) if values else 0.0

    def per_round(key):
        return sum(r.layer.get(key, 0) for r in traced) / n

    sim_cycles = raw_of("sim.cycles")
    mgmt = raw_of("counters.flush_cycles", "counters.purge_cycles")
    untraced_host = host_seconds(run, untraced)
    traced_host = host_seconds(run, traced)
    trace_record = (statistics.median(run.setup_s)
                    if run.workload.name == "replay" else 0.0)
    return {
        "hw.machine.access.calls": (call_count("hw.machine.access"), "count"),
        "hw.machine.word_calls": (count(
            "hw.machine.access.read", "hw.machine.access.write",
            "hw.machine.access.ifetch"), "count"),
        "hw.machine.access.self_s": (self_s("hw.machine.access"), "s"),
        "hw.dcache.word_calls": (count("hw.dcache.read", "hw.dcache.write"),
                                 "count"),
        "hw.dcache.run_calls": (count("hw.dcache.read_run",
                                      "hw.dcache.write_run"), "count"),
        "hw.dcache.self_s": (self_s("hw.dcache"), "s"),
        "hw.dcache.hit_ratio": (ratio(
            count("hw.dcache.hits"),
            count("hw.dcache.hits", "hw.dcache.misses")), "ratio"),
        "hw.dcache.write_backs": (count("hw.dcache.write_backs"), "count"),
        "hw.icache.self_s": (self_s("hw.icache"), "s"),
        "hw.tlb.calls": (call_count("hw.tlb"), "count"),
        "hw.tlb.self_s": (self_s("hw.tlb"), "s"),
        "hw.tlb.hit_ratio": (ratio(
            raw_of("counters.tlb_hits"),
            raw_of("counters.tlb_hits", "counters.tlb_misses")), "ratio"),
        "core.oracle.checks": (count(
            "core.oracle.check_cpu_read", "core.oracle.check_page_read",
            "core.oracle.check_run_read", "core.oracle.check_dma_read"),
            "count"),
        "core.oracle.self_s": (self_s("core.oracle"), "s"),
        "core.oracle.violations": (raw_of("oracle.violations"), "count"),
        "vm.pmap.calls": (call_count("vm.pmap"), "count"),
        "vm.pmap.self_s": (self_s("vm.pmap"), "s"),
        "vm.pmap.consistency_faults": (
            raw_of("counters.consistency_faults"), "count"),
        "vm.pmap.dma_preps": (count("vm.pmap.prepare_dma_read",
                                    "vm.pmap.prepare_dma_write"), "count"),
        "core.cache_control.calls": (call_count("core.cache_control"),
                                     "count"),
        "core.cache_control.self_s": (self_s("core.cache_control"), "s"),
        "policy.page_flushes": (raw_of("counters.page_flushes"), "count"),
        "policy.page_purges": (raw_of("counters.page_purges"), "count"),
        "policy.mgmt_cycles": (mgmt, "cycles"),
        "policy.mgmt_cycle_share": (ratio(mgmt, sim_cycles), "ratio"),
        "policy.fault_cycles": (raw_of("counters.fault_cycles"), "cycles"),
        "policy.hooks.calls": (call_count("policy.hooks"), "count"),
        "policy.hooks.self_s": (self_s("policy.hooks"), "s"),
        "kernel.unix_server.calls": (call_count("kernel.unix_server"),
                                     "count"),
        "kernel.unix_server.self_s": (self_s("kernel.unix_server"), "s"),
        "kernel.ipc.page_moves": (raw_of("counters.ipc_page_moves"),
                                  "count"),
        "kernel.ipc.self_s": (self_s("kernel.ipc"), "s"),
        "kernel.fault.calls": (call_count("kernel.fault"), "count"),
        "kernel.fault.self_s": (self_s("kernel.fault"), "s"),
        "kernel.task.self_s": (self_s("kernel.task"), "s"),
        "kernel.pageout.self_s": (self_s("kernel.pageout"), "s"),
        "kernel.buffer_cache.hit_ratio": (ratio(
            raw_of("bc.hits"), raw_of("bc.hits", "bc.misses")), "ratio"),
        "kernel.buffer_cache.self_s": (self_s("kernel.buffer_cache"), "s"),
        "kernel.disk.reads": (raw_of("disk.reads"), "count"),
        "kernel.disk.writes": (raw_of("disk.writes"), "count"),
        "kernel.disk.retries": (raw_of("disk.retries"), "count"),
        "kernel.disk.self_s": (self_s("kernel.disk"), "s"),
        "hw.dma.transfers": (raw_of("counters.dma_reads",
                                    "counters.dma_writes"), "count"),
        "hw.dma.self_s": (self_s("hw.dma"), "s"),
        "trace.record.s": (trace_record, "s"),
        "trace.interp.ops": (per_round("trace.interp.ops"), "count"),
        "trace.interp.self_s": (self_s("trace.interp"), "s"),
        "trace.interp.batches": (per_round("trace.interp.batches"),
                                 "count"),
        "trace.interp.batched_ops": (per_round("trace.interp.batched_ops"),
                                     "count"),
        "trace.interp.fallbacks": (per_round("trace.interp.fallbacks"),
                                   "count"),
        "farm.jobs": (layer_median("farm.jobs"), "count"),
        "farm.failed": (layer_median("farm.failed"), "count"),
        "farm.retries": (layer_median("farm.retries"), "count"),
        "farm.worker_busy_s": (layer_median("farm.worker_busy_s"), "s"),
        "farm.wall_s": (layer_median("farm.wall_s"), "s"),
        "farm.dispatch_overhead_pct": (
            layer_median("farm.dispatch_overhead_pct"), "%"),
        "farm.executor.self_s": (self_s("farm.executor"), "s"),
        "farm.runner.self_s": (self_s("farm.runner"), "s"),
        "host.gc_s": (gc_totals[0] / 1e9 / n, "s"),
        "host.gc_collections": (gc_totals[1] / n, "count"),
        "bench.driver.self_s": (self_s("bench.driver"), "s"),
        # Simulated cycles obs.profiler.instrument_kernel attributes to
        # each layer over the lifetime of every kernel a round boots.
        "sim.cycles": (sim_cycles, "cycles"),
        "kernel.fault.sim_cycles": (raw_of("scope.kernel.fault"), "cycles"),
        "kernel.disk.sim_cycles": (raw_of("scope.kernel.disk.read",
                                          "scope.kernel.disk.write"),
                                   "cycles"),
        "kernel.buffer_cache.sim_cycles": (
            raw_of("scope.kernel.buffer-cache"), "cycles"),
        "kernel.pageout.sim_cycles": (raw_of("scope.kernel.pageout"),
                                      "cycles"),
        "vm.pmap.prepare_sim_cycles": (raw_of(
            "scope.kernel.prepare.zero-fill", "scope.kernel.prepare.copy"),
            "cycles"),
        "hw.dcache.mgmt_sim_cycles": (raw_of("scope.hw.flush.dcache",
                                             "scope.hw.purge.dcache"),
                                      "cycles"),
        "hw.icache.mgmt_sim_cycles": (raw_of("scope.hw.flush.icache",
                                             "scope.hw.purge.icache"),
                                      "cycles"),
        "hw.dma.sim_cycles": (raw_of("scope.hw.dma.read",
                                     "scope.hw.dma.write"), "cycles"),
        "bench.untraced_host_s": (untraced_host, "s"),
        "bench.traced_host_s": (traced_host, "s"),
        "bench.tracing_overhead": (ratio(traced_host, untraced_host),
                                   "ratio"),
    }


# ---- entry point ----------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.make(name, seed)
    run = Run(workload)
    run.prepare()
    report: dict = {"workload": name, "seed": seed, "trace": int(trace),
                    "env": environment()}
    errors: list[str] = []
    layer = None
    if not trace:
        rounds = run.rounds(seconds, MIN_ROUNDS)
        measured = rounds
    else:
        rounds = run.rounds(seconds * UNTRACED_SHARE, 1)
        kwargs = {"in_process": True} if name == "table1" else {}
        traced, layer = traced_rounds(run, seconds * (1 - UNTRACED_SHARE),
                                      rounds, **kwargs)
        measured = rounds + traced
        report["untraced_rounds"] = len(rounds)
        report["traced_rounds"] = len(traced)
    for r in measured:
        errors.extend(r.errors)
    divergent = identity_failures(measured)
    errors.extend(divergent)
    attempted = sum(r.attempted for r in measured)
    failed = sum(r.failed for r in measured) + len(divergent)
    samples = latencies(rounds)
    tail = stats.tail_percentile(samples)
    report.update({
        "rounds": len(measured), "setup_samples": len(run.setup_s),
        "latency_samples": len(samples),
        "host_s_median_over_rounds": statistics.median(
            [r.host_s for r in rounds]),
        "tail_percentile": None if tail is None else
        {"p": tail[0], "us": tail[1], "count": tail[2]},
        "fail_ratio": failed / attempted if attempted else 0.0,
        "sim_digest": digest_of(measured),
        "errors": errors[:10]})
    e2e = end_to_end(run, rounds)
    report["end_to_end"] = {k: [v, END_TO_END_UNITS[k]]
                            for k, v in e2e.items()}
    report["end_to_end"]["fail_ratio"] = [report["fail_ratio"], "ratio"]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}
    return {"report": report,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def traced_rounds(run: Run, seconds: float, untraced, **kwargs):
    """Rounds under the layer probes; returns them and the per-layer
    metrics folded from their spans, counters and profilers."""
    recorder = spans.SpanRecorder()
    raw: dict = {}
    totals: tuple[dict, dict, dict] = ({}, {}, {})
    gc_totals = [0, 0]

    with spans.LayerProbes(recorder) as probes:
        @contextlib.contextmanager
        def round_span():
            # Only the measured part of a round counts: spans opened
            # while a serve round booted its kernel are left out.
            before = [dict(recorder.self_time), dict(recorder.calls),
                      dict(recorder.counts)]
            gc_before = (probes.gc_ns, probes.gc_collections)
            recorder.push("bench.driver")
            try:
                yield
            finally:
                recorder.pop()
            after = (recorder.self_time, recorder.calls, recorder.counts)
            for acc, now, then in zip(totals, after, before):
                for key, value in now.items():
                    acc[key] = acc.get(key, 0) + value - then.get(key, 0)
            gc_totals[0] += probes.gc_ns - gc_before[0]
            gc_totals[1] += probes.gc_collections - gc_before[1]
            for key, value in probes.harvest().items():
                raw[key] = raw.get(key, 0) + value

        traced = run.rounds(seconds, 1, measure=round_span, **kwargs)
    layer = per_layer(run, untraced, traced, totals, raw, gc_totals)
    return traced, layer


def stop_children() -> None:
    """Stop every worker process still running and wait for it to end.

    The pools of the farm and of the replay set-up join their workers
    when they shut down; this also covers a run that ends in an error
    while a pool is up.
    """
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join()


def render(outcome: dict) -> str:
    report = outcome["report"]
    lines = [f"workload {report['workload']} seed {report['seed']} "
             f"trace {report['trace']}: {report['rounds']} rounds, "
             f"{report['latency_samples']} latency samples, "
             f"{report['env']['usable_cores']} usable cores"]
    for name, (value, unit) in report["end_to_end"].items():
        lines.append(f"  {name:<20} {value:>16.6g} {unit}")
    if report["trace"]:
        for name, metric in outcome["result"]["metrics"].items():
            lines.append(f"  {name:<32} {metric['value']:>16.6g} "
                         f"{metric['unit']}")
    for error in report["errors"]:
        lines.append(f"  FAILED: {error}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hold_allocator_policy()
    try:
        outcome = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    finally:
        stop_children()
    print(render(outcome))
    print(json.dumps(outcome["report"], sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
