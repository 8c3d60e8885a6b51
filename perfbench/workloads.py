"""The benchmark's four workloads, each a repeatable *round* of work.

Why these four (``BENCHMARK.json`` repeats this per workload):

``serve-hot``
    The Unix-server request path with a hot file set that fits the
    buffer cache: IPC, pmap and the ``hw`` translate/block paths do the
    work, disk and DMA almost none.
``serve-churn``
    The same generator with writes, over a file set larger than the
    buffer cache: misses, write-behind and disk DMA push work through
    the pmap's DMA preparation (the paper's Section 3 obligations).
``table1``
    The paper's three workloads under configurations A and F at paper
    scale, as six farm jobs: what users reproduce, and the only
    workload that runs the farm and fork/exec/copy-on-write.
``replay``
    The six ``table1`` runs compiled to traces once, then replayed:
    only ``trace.interp`` and ``hw.cache`` run, so it predicts "no
    change" for any kernel, pmap, TLB or oracle change.

A round is a pure function of the seed: every round of a run simulates
exactly the same thing, so the simulated outputs of all rounds (and of
a traced and an untraced run) must agree bit for bit.  Each round
returns a :class:`Round`; the runner turns rounds into metrics.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

import repro.trace as rtrace
from repro.analysis.experiments import evaluation_machine, make_workload
from repro.analysis.metrics import RunMetrics
from repro.errors import ReproError
from repro.farm import Executor, JobSpec
from repro.kernel.disk import synthetic_block
from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess
from repro.vm.policy import NEW_SYSTEM
from repro.workloads import afs_bench, kernel_build, latex_bench

from perfbench.stats import dispatch_overhead_pct

#: bench_full_scale's paper-scale settings, shared by table1 and replay.
#: Longest job first: the farm dispatches in spec order, so this keeps
#: its schedule from depending on when the short jobs happen to finish.
PAPER_WORKLOADS = ("kernel-build", "afs-bench", "latex-paper")
PAPER_POLICIES = ("A", "F")
FULL_SCALE = 5.0
PHYS_PAGES = 1024
BUFFER_CACHE_PAGES = 128
#: the paper's reported gain of F over A per workload (Table 1).
PAPER_GAINS = {"afs-bench": afs_bench.PAPER.gain_percent,
               "latex-paper": latex_bench.PAPER.gain_percent,
               "kernel-build": kernel_build.PAPER.gain_percent}


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                      # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class Round:
    """What one round did: host timings, counts and simulated outputs."""

    host_s: float                 # wall seconds of the measured phase
    ops: int                      # work units (requests, jobs, trace ops)
    attempted: int                # checked operations
    failed: int                   # operations whose output was wrong
    latencies_us: list[float]     # per session, job or trace, in order
    sim_cycles: int               # simulated cycles of the measured work
    sim_ops: int                  # the denominator of sim_cycles_per_op
    sim_s: float                  # simulated seconds under configuration F
    digest: dict                  # every simulated output, for identity
    layer: dict = field(default_factory=dict)   # workload-only raw numbers
    errors: list[str] = field(default_factory=list)


# ---- serve-hot / serve-churn ---------------------------------------------


@dataclass(frozen=True)
class ServeShape:
    files: int
    file_pages: int
    buffer_cache_pages: int
    users: int                    # user sessions per round
    reread_share: float           # users who read a second page
    write_share: float            # users who write a page and read it back
    frontends: int = 4


SERVE_HOT = ServeShape(files=6, file_pages=4, buffer_cache_pages=48,
                       users=1000, reread_share=0.25, write_share=0.0)
SERVE_CHURN = ServeShape(files=24, file_pages=8, buffer_cache_pages=48,
                         users=1000, reread_share=0.25, write_share=0.25)


@dataclass
class ServeState:
    kernel: Kernel
    names: list[str]
    file_ids: list[int]
    pool: list[UserProcess]


class Serve:
    """A closed loop of seeded users, one client, no think time.

    Each user is one session on one of a few frontend processes: stat,
    open, read a page, sometimes re-read another, sometimes write a page
    with values the benchmark chose and read it back, close.  Every page
    a user receives is checked against the on-disk synthetic block or
    the last value the benchmark wrote there; the staleness oracle stays
    armed throughout.
    """

    setup_per_round = True
    setup_repeats = 0
    sequential_items = True

    def __init__(self, name: str, shape: ServeShape, seed: int):
        self.name = name
        self.shape = shape
        self.seed = seed

    def setup(self) -> ServeState:
        shape = self.shape
        kernel = Kernel(policy=NEW_SYSTEM,
                        buffer_cache_pages=shape.buffer_cache_pages)
        names = [f"srv/f{i}" for i in range(shape.files)]
        for name in names:
            kernel.fs.create(name, size_pages=shape.file_pages, on_disk=True)
        file_ids = [kernel.fs.lookup(name).file_id for name in names]
        pool = [UserProcess(kernel, name=f"fe{i}")
                for i in range(shape.frontends)]
        return ServeState(kernel, names, file_ids, pool)

    def _written(self, seq: int, words: int) -> np.ndarray:
        # Top bit set: never equal to a synthetic block, and unique per
        # write so the oracle can tell every version apart.
        base = (1 << 63) | ((self.seed & 0x3FF) << 52) | (seq << 12)
        return np.uint64(base) + np.arange(words, dtype=np.uint64)

    def round(self, state: ServeState) -> Round:
        shape = self.shape
        kernel = state.kernel
        wpp = kernel.machine.memory.words_per_page
        rng = random.Random(self.seed)
        expected: dict[tuple[int, int], np.ndarray] = {}

        def content(f: int, page: int) -> np.ndarray:
            values = expected.get((f, page))
            if values is None:
                values = synthetic_block(state.file_ids[f], page, wpp)
                expected[(f, page)] = values
            return values

        base_syscalls = kernel.unix_server.syscalls
        base_cycles = kernel.machine.clock.cycles
        latencies: list[float] = []
        requests = failed = writes = 0
        crc = 0
        errors: list[str] = []
        clock = time.perf_counter
        begun = clock()
        for user in range(shape.users):
            frontend = state.pool[rng.randrange(shape.frontends)]
            f = rng.randrange(shape.files)
            name = state.names[f]
            pages = [rng.randrange(shape.file_pages)]
            if rng.random() < shape.reread_share:
                pages.append(rng.randrange(shape.file_pages))
            wpage = (rng.randrange(shape.file_pages)
                     if rng.random() < shape.write_share else None)
            checks = [content(f, page) for page in pages]
            issued = 3 + len(pages)               # stat, open, reads, close
            if wpage is not None:
                written = self._written(writes, wpp)
                writes += 1
                checks.append(written)
                issued += 2                       # write, read back
            got = []
            t0 = clock()
            try:
                frontend.stat(name)
                fd = frontend.open(name)
                for page in pages:
                    got.append(frontend.read_file_page(fd, page))
                if wpage is not None:
                    frontend.write_file_page(fd, wpage, written)
                    got.append(frontend.read_file_page(fd, wpage))
                frontend.close(fd)
            except ReproError as exc:
                # The kernel's state is unknown after a failed request:
                # count the session as failed and end the round.
                requests += issued
                failed += issued
                errors.append(f"user {user}: {type(exc).__name__}: {exc}")
                break
            latencies.append((clock() - t0) * 1e6)
            requests += issued
            if wpage is not None:
                expected[(f, wpage)] = written
            for values, want in zip(got, checks):
                crc = zlib.crc32(values.tobytes(), crc)
                if not np.array_equal(values, want):
                    failed += 1
                    errors.append(f"user {user}: wrong page content")
        host_s = clock() - begun

        served = kernel.unix_server.syscalls - base_syscalls
        if not errors and served != requests:
            failed += 1
            errors.append(f"server counted {served} requests, the "
                          f"benchmark issued {requests}")
        cycles = kernel.machine.clock.cycles - base_cycles
        bc = kernel.buffer_cache
        disk = kernel.disk
        digest = {"requests": served, "cycles": cycles, "crc": crc,
                  "writes": writes,
                  "counters": kernel.machine.counters.snapshot(),
                  "buffer_cache": [bc.hits, bc.misses],
                  "disk": [disk.reads, disk.writes, disk.retries]}
        return Round(host_s=host_s, ops=served, attempted=requests,
                     failed=failed, latencies_us=latencies,
                     sim_cycles=cycles, sim_ops=max(served, 1),
                     sim_s=kernel.machine.config.cost.seconds(cycles),
                     digest=digest, errors=errors)


# ---- table1 -----------------------------------------------------------------


def table1_specs() -> list[JobSpec]:
    return [JobSpec.workload(workload=name, policy=policy, scale=FULL_SCALE,
                             phys_pages=PHYS_PAGES,
                             buffer_cache_pages=BUFFER_CACHE_PAGES)
            for name in PAPER_WORKLOADS for policy in PAPER_POLICIES]


def table1_invariants(name: str, old: RunMetrics,
                      new: RunMetrics) -> list[str]:
    """The Table 1 shape claims (bench_table1) and the flush identity
    (bench_full_scale) on one A/F pair."""
    problems = []
    paper = PAPER_GAINS[name]
    gain = 100 * (old.seconds - new.seconds) / old.seconds
    if not paper / 2.5 < gain < paper * 2.5:
        problems.append(f"{name}: gain {gain:.1f}% not within 2.5x of the "
                        f"paper's {paper}%")
    if not new.page_flushes < old.page_flushes / 3:
        problems.append(f"{name}: F flushes {new.page_flushes} not below "
                        f"a third of A's {old.page_flushes}")
    if not new.page_purges <= old.page_purges:
        problems.append(f"{name}: F purges {new.page_purges} exceed A's "
                        f"{old.page_purges}")
    if new.dcache_flushes.count != (new.dma_read_flushes.count
                                    + new.d_to_i_flushes.count):
        problems.append(f"{name}: the F flush identity does not hold")
    return problems


class Table1:
    """Six paper-scale farm jobs, one worker per usable core, no cache.

    The scripts are fixed, so the seed is recorded but unused.  With
    ``in_process`` (the traced run) the same jobs run serially in this
    process, where the layer probes can see them.
    """

    name = "table1"
    setup_per_round = False
    setup_repeats = 25
    sequential_items = False

    def __init__(self, seed: int):
        self.seed = seed
        self.workers = usable_cores()
        self.specs = table1_specs()

    def setup(self) -> None:
        # Worker start: a pool of the measured width runs one trivial
        # job per worker and shuts down.  The first call also builds the
        # fork snapshot the workers inherit.
        outcomes = Executor(jobs=self.workers).run(
            [JobSpec.selftest("ok", value=i) for i in range(self.workers)])
        for outcome in outcomes:
            if not outcome.ok:
                raise RuntimeError(f"farm warm-up failed: {outcome.failure}")

    def round(self, state, in_process: bool = False) -> Round:
        executor = Executor(jobs=1 if in_process else self.workers)
        begun = time.perf_counter()
        outcomes = executor.run(self.specs)
        host_s = time.perf_counter() - begun

        errors = [f"{o.spec.label()}: {o.failure}"
                  for o in outcomes if not o.ok]
        failed = len(errors)
        metrics = [RunMetrics.from_dict(o.payload["metrics"])
                   if o.ok else None for o in outcomes]
        sim_s = 0.0
        for i, name in enumerate(PAPER_WORKLOADS):
            old, new = metrics[2 * i], metrics[2 * i + 1]
            if old is None or new is None:
                continue
            problems = table1_invariants(name, old, new)
            failed += len(problems)
            errors.extend(problems)
            sim_s += new.seconds
        ok_metrics = [m for m in metrics if m is not None]
        busy = [o.wall_seconds for o in outcomes]
        stats = executor.stats
        layer = {"farm.jobs": stats.jobs, "farm.failed": stats.failed,
                 "farm.retries": stats.retries,
                 "farm.worker_busy_s": sum(busy),
                 "farm.wall_s": stats.wall_seconds,
                 "farm.dispatch_overhead_pct": dispatch_overhead_pct(
                     stats.wall_seconds, busy, executor.jobs)}
        return Round(host_s=host_s, ops=len(outcomes),
                     attempted=len(outcomes) + len(PAPER_WORKLOADS),
                     failed=failed,
                     latencies_us=[b * 1e6 for b in busy],
                     sim_cycles=sum(m.cycles for m in ok_metrics),
                     sim_ops=len(outcomes), sim_s=sim_s,
                     digest={"metrics": [o.payload["metrics"] if o.ok
                                         else None for o in outcomes]},
                     layer=layer, errors=errors)


# ---- replay -------------------------------------------------------------------


def compile_pair(pair: tuple[str, str]):
    """Compile one table1 run to a trace (a worker-process entry point)."""
    name, policy = pair
    return rtrace.compile_workload(
        make_workload(name, FULL_SCALE), policy,
        config=evaluation_machine(phys_pages=PHYS_PAGES),
        buffer_cache_pages=BUFFER_CACHE_PAGES)


class Replay:
    """The six table1 runs, compiled once per setup and replayed.

    Set-up compiles the six traces on one worker per usable core (fresh
    ``fork`` workers each time, so worker start is part of set-up).  Not
    ``spawn``: that start method also launches a resource-tracker process
    that outlives this one.
    """

    name = "replay"
    setup_per_round = False
    setup_repeats = 3
    sequential_items = True

    def __init__(self, seed: int):
        self.seed = seed
        self.pairs = [(name, policy) for name in PAPER_WORKLOADS
                      for policy in PAPER_POLICIES]
        self.cost = evaluation_machine(phys_pages=PHYS_PAGES).cost

    def setup(self) -> list:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=usable_cores(),
                                 mp_context=context) as pool:
            traces = list(pool.map(compile_pair, self.pairs))
        return [(f"{name}/{policy}", trace)
                for (name, policy), trace in zip(self.pairs, traces)]

    def round(self, traces) -> Round:
        clock = time.perf_counter
        latencies: list[float] = []
        digest: dict = {}
        errors: list[str] = []
        layer = {"trace.interp.ops": 0, "trace.interp.batches": 0,
                 "trace.interp.batched_ops": 0, "trace.interp.fallbacks": 0}
        ops = cycles = 0
        sim_s = 0.0
        begun = clock()
        for label, trace in traces:
            t0 = clock()
            result = rtrace.replay_trace(trace)
            latencies.append((clock() - t0) * 1e6)
            if not result.equivalent:
                errors.append(f"{label}: replay not equivalent "
                              f"{list(result.mismatches)[:3]}")
            ops += result.n_ops
            cycles += result.clock
            if label.endswith("/F"):
                sim_s += self.cost.seconds(result.clock)
            layer["trace.interp.ops"] += result.n_ops
            layer["trace.interp.batches"] += result.batches
            layer["trace.interp.batched_ops"] += result.batched_ops
            layer["trace.interp.fallbacks"] += result.fallbacks
            digest[label] = [result.clock, result.n_ops,
                             result.counters.snapshot()]
        host_s = clock() - begun
        return Round(host_s=host_s, ops=ops, attempted=len(traces),
                     failed=len(errors), latencies_us=latencies,
                     sim_cycles=cycles, sim_ops=max(ops, 1), sim_s=sim_s,
                     digest=digest, layer=layer, errors=errors)


def make(name: str, seed: int):
    """The workload object for a benchmark workload name."""
    if name == "serve-hot":
        return Serve(name, SERVE_HOT, seed)
    if name == "serve-churn":
        return Serve(name, SERVE_CHURN, seed)
    if name == "table1":
        return Table1(seed)
    if name == "replay":
        return Replay(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


WORKLOADS = ("serve-hot", "serve-churn", "table1", "replay")
