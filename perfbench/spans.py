"""Layer probes for the traced run: spans around the simulator's entry points.

The benchmark never edits the simulator.  Instead, for a traced run,
:class:`LayerProbes` replaces the public entry points of each layer —
``hw``, ``core``, ``vm``, ``policy``, ``kernel``, ``trace`` and ``farm``
— with wrappers that open a span, call straight through, and close it.
Wrapping happens on the *classes* (and on the module attributes callers
import), so every instance a workload creates — including the kernels
that ``farm`` runners and ``trace.compile_workload`` boot internally —
is covered, and :meth:`LayerProbes.close` restores every original.

Spans are aggregated as they close (name -> self time, calls), never
stored one by one: a traced serve round closes millions of them.  A
span's self time is its duration minus the durations of the spans it
directly encloses (children never outlive their parent, so that is the
part of its interval they cover).

Beside host time, every kernel booted while the probes are open gets a
:class:`repro.obs.profiler.CycleProfiler` through
:func:`repro.obs.profiler.instrument_kernel`, so the traced run reports
the simulated cycles each layer consumed next to its host seconds.
"""

from __future__ import annotations

import gc
import importlib
import time

#: (module, class, span, methods): the plain layer entry points.
CLASS_PROBES = (
    ("repro.hw.machine", "Machine", "hw.machine.access",
     ("read", "write", "ifetch", "read_block", "write_block", "read_page",
      "write_page")),
    ("repro.hw.tlb", "Tlb", "hw.tlb",
     ("lookup", "insert", "invalidate", "invalidate_asid", "invalidate_all",
      "note_repeat_hits")),
    ("repro.hw.dma", "DmaEngine", "hw.dma", ("dma_read", "dma_write")),
    ("repro.core.oracle", "ShadowMemory", "core.oracle",
     ("check_cpu_read", "check_page_read", "check_run_read",
      "check_dma_read", "note_cpu_write", "note_page_write",
      "note_dma_write", "note_run_write")),
    ("repro.core.cache_control", "CacheControl", "core.cache_control",
     ("__call__", "update_protections")),
    ("repro.vm.pmap", "Pmap", "vm.pmap",
     ("state_of", "page_table", "destroy_page_table", "cache_page_of",
      "translate", "note_modified", "sync_modified", "enter", "remove",
      "protect", "enter_superpage", "consistency_fault", "zero_fill_page",
      "copy_page", "read_frame", "prepare_dma_read", "prepare_dma_write",
      "install_text_page", "quarantine_frame", "frame_freed")),
    ("repro.policy.base", "ConsistencyPolicy", "policy.hooks",
     ("setup", "wants_uncached", "on_map", "on_unmap", "on_alias_fault",
      "prepare_plan", "read_window", "on_dma_read", "on_dma_write",
      "do_flush", "do_purge", "enter_superpage", "on_context_switch")),
    ("repro.kernel.kernel", "Kernel", "kernel.fault", ("handle_fault",)),
    ("repro.kernel.unix_server", "UnixServer", "kernel.unix_server",
     ("sys_create", "sys_open", "sys_close", "sys_stat", "sys_read_page",
      "sys_write_page", "sys_remove")),
    ("repro.kernel.buffer_cache", "BufferCache", "kernel.buffer_cache",
     ("read_block", "write_block_from_frame", "dirty_block", "tick",
      "sync", "invalidate_file")),
    ("repro.kernel.disk", "Disk", "kernel.disk",
     ("read_block", "write_block")),
    ("repro.kernel.pageout", "PageoutDaemon", "kernel.pageout",
     ("maybe_reclaim",)),
    # Task and UserProcess are thin glue between the workload and the
    # server; giving them a span keeps their time out of the benchmark's.
    ("repro.kernel.task", "Task", "kernel.task",
     ("allocate_anon", "map_shared", "unmap", "read", "write", "read_page",
      "write_page", "read_block", "write_block", "ifetch")),
    ("repro.kernel.process", "UserProcess", "kernel.task",
     ("create", "open", "close", "stat", "remove", "read_file_page",
      "write_file_page")),
    ("repro.farm.executor", "Executor", "farm.executor", ("run",)),
)

#: Cache methods; the span is named after the instance (hw.dcache or
#: hw.icache) and the outermost call also records hit/miss deltas.
CACHE_METHODS = ("read", "write", "read_run", "write_run", "read_page",
                 "write_page", "zero_page", "flush_page_frame",
                 "purge_page_frame")

#: (module, function, span): module-level entry points, patched in every
#: module that imports them by name.
FUNCTION_PROBES = (
    (("repro.kernel.ipc", "repro.kernel", "repro.kernel.unix_server"),
     "transfer_page", "kernel.ipc"),
    (("repro.trace.interp", "repro.trace"), "replay_trace", "trace.interp"),
    (("repro.trace.record", "repro.trace"), "compile_workload",
     "trace.record"),
    (("repro.farm.runners", "repro.farm.executor"), "run_spec",
     "farm.runner"),
)


class SpanRecorder:
    """A stack of open spans, folded into per-name totals as they close."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self._stack: list[list] = []          # [name, start, child time]
        self.self_time: dict[str, int] = {}   # name -> clock units
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}      # method calls, counter deltas

    def push(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def pop(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_time[name] = self.self_time.get(name, 0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class LayerProbes:
    """Install spans on every layer entry point; ``close()`` undoes it.

    ``kernels`` collects every kernel booted while the probes are open,
    each with a running cycle profiler; :meth:`harvest` detaches them and
    returns their raw counters, so the caller can fold them into the
    round's per-layer numbers.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.kernels: list = []
        self._profiled: list = []
        self._restore: list[tuple[object, str, object]] = []
        self._cache_depth = 0
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0
        self._install()

    # ---- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_method(self, cls, method: str, span: str) -> None:
        original = cls.__dict__[method]
        recorder = self.recorder
        key = f"{span}.{method}"

        def probe(*args, **kwargs):
            recorder.counts[key] = recorder.counts.get(key, 0) + 1
            recorder.push(span)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.pop()

        self._patch(cls, method, probe)

    def _cache_method(self, cls, method: str) -> None:
        original = cls.__dict__[method]
        recorder = self.recorder
        probes = self

        def probe(cache, *args, **kwargs):
            span = "hw." + cache.name
            recorder.count(f"{span}.{method}")
            outermost = probes._cache_depth == 0
            probes._cache_depth += 1
            c = cache.counters
            hits = c.read_hits + c.write_hits
            misses = c.read_misses + c.write_misses
            write_backs = c.write_backs
            recorder.push(span)
            try:
                return original(cache, *args, **kwargs)
            finally:
                recorder.pop()
                probes._cache_depth -= 1
                if outermost:
                    recorder.count(f"{span}.hits",
                                   c.read_hits + c.write_hits - hits)
                    recorder.count(f"{span}.misses",
                                   c.read_misses + c.write_misses - misses)
                    recorder.count(f"{span}.write_backs",
                                   c.write_backs - write_backs)

        self._patch(cls, method, probe)

    def _span_function(self, modules, name: str, span: str) -> None:
        original = getattr(importlib.import_module(modules[0]), name)
        recorder = self.recorder

        def probe(*args, **kwargs):
            recorder.push(span)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.pop()

        for module_name in modules:
            module = importlib.import_module(module_name)
            if module.__dict__.get(name) is original:
                self._patch(module, name, probe)

    def _profile_kernels(self) -> None:
        from repro.kernel.kernel import Kernel
        from repro.obs.profiler import CycleProfiler, instrument_kernel

        original = Kernel.__dict__["__init__"]
        probes = self

        def init(kernel, *args, **kwargs):
            original(kernel, *args, **kwargs)
            profiler = CycleProfiler(kernel.machine.clock).start("kernel")
            probes.kernels.append(kernel)
            probes._profiled.append(
                (profiler, instrument_kernel(profiler, kernel)))

        self._patch(Kernel, "__init__", init)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    def _install(self) -> None:
        try:
            for module, cls_name, span, methods in CLASS_PROBES:
                cls = getattr(importlib.import_module(module), cls_name)
                for method in methods:
                    self._span_method(cls, method, span)
            from repro.hw.cache import Cache
            for method in CACHE_METHODS:
                self._cache_method(Cache, method)
            for modules, name, span in FUNCTION_PROBES:
                self._span_function(modules, name, span)
            self._profile_kernels()
            gc.callbacks.append(self._on_gc)
        except BaseException:
            self.close()
            raise

    # ---- harvest and teardown ----------------------------------------------

    def harvest(self) -> dict:
        """Detach the kernels booted since the last harvest; return the
        sums of their counters and of their profilers' scope cycles."""
        raw: dict[str, float] = {}

        def add(key: str, value) -> None:
            raw[key] = raw.get(key, 0) + value

        for (profiler, inst), kernel in zip(self._profiled, self.kernels):
            inst.detach()
            root = profiler.stop()
            add("sim.cycles", root.cycles)
            for scope, (cycles, _calls) in profiler.aggregate().items():
                if scope != root.name:
                    add(f"scope.{scope}", cycles)
            for key, value in kernel.machine.counters.snapshot().items():
                add(f"counters.{key}", value)
            add("disk.reads", kernel.disk.reads)
            add("disk.writes", kernel.disk.writes)
            add("disk.retries", kernel.disk.retries)
            add("bc.hits", kernel.buffer_cache.hits)
            add("bc.misses", kernel.buffer_cache.misses)
            oracle = kernel.machine.oracle
            if oracle is not None:
                add("oracle.checks", oracle.checks)
                add("oracle.violations", len(oracle.violations))
        self.kernels.clear()
        self._profiled.clear()
        return raw

    def close(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "LayerProbes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
