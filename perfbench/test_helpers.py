"""Tests of the benchmark's own helpers, with hand-computed cases.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import spans, stats, workloads  # noqa: E402


# ---- the percentile rule ----------------------------------------------------


def test_nearest_rank_percentile():
    samples = [5, 1, 4, 2, 3]           # sorted: 1 2 3 4 5
    assert stats.percentile(samples, 50) == 3     # rank ceil(2.5) = 3
    assert stats.percentile(samples, 99) == 5     # rank ceil(4.95) = 5
    assert stats.percentile(samples, 20) == 1     # rank ceil(1.0) = 1
    assert stats.percentile(samples, 0) == 1      # rank clamps to 1


def test_samples_beyond_a_percentile():
    # 1000 samples: p99 sits at rank 990, ten lie beyond it.
    assert stats.beyond(1000, 99) == 10
    assert stats.beyond(1000, 99.9) == 1
    assert stats.beyond(20, 50) == 10
    assert stats.beyond(19, 50) == 9


def test_tail_percentile_picks_the_highest_rung_with_ten_beyond():
    # 2000 samples: p99.9 has 2 beyond, p99 has 20 -> p99 qualifies.
    samples = list(range(1, 2001))
    assert stats.tail_percentile(samples) == (99.0, 1980, 2000)
    # 10000 samples: p99.9 has exactly 10 beyond.
    samples = list(range(1, 10001))
    assert stats.tail_percentile(samples) == (99.9, 9990, 10000)
    # 100 samples: p99 has 1 beyond, p90 has 10.
    samples = list(range(1, 101))
    assert stats.tail_percentile(samples) == (90.0, 90, 100)
    # 19 samples: even the median has only 9 beyond.
    assert stats.tail_percentile(list(range(19))) is None


# ---- self time from nested spans ----------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # round 0..100 encloses server 10..60 (which encloses cache 20..30
    # and cache 40..45) and cache 70..80:
    #   round 100 - 50 - 10 = 40, server 50 - 10 - 5 = 35,
    #   cache 10 + 5 + 10 = 25.
    ticks = iter([0, 10, 20, 30, 40, 45, 60, 70, 80, 100])
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))
    recorder.push("round")            # 0
    recorder.push("server")           # 10
    recorder.push("cache")            # 20
    recorder.pop()                    # 30
    recorder.push("cache")            # 40
    recorder.pop()                    # 45
    recorder.pop()                    # 60
    recorder.push("cache")            # 70
    recorder.pop()                    # 80
    recorder.pop()                    # 100
    assert recorder.self_time == {"round": 40, "server": 35, "cache": 25}
    assert recorder.calls == {"round": 1, "server": 1, "cache": 3}


def test_recursive_span_is_not_double_counted():
    ticks = iter([0, 10, 30, 50])
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))
    recorder.push("pmap")
    recorder.push("pmap")
    recorder.pop()
    recorder.pop()
    # outer 0..50 minus inner 10..30, plus inner 20: the whole 50 once.
    assert recorder.self_time == {"pmap": 50}


# ---- the dispatch-overhead formula ----------------------------------------------


def test_dispatch_overhead_against_even_spread():
    # 4 jobs of 1 s on 2 workers could finish in 2 s; 2.5 s were spent.
    assert stats.dispatch_overhead_pct(2.5, [1, 1, 1, 1], 2) == \
        pytest.approx(20.0)


def test_dispatch_overhead_against_longest_job():
    # One 3 s job dominates: the bound is 3 s, not (3+1)/2 = 2 s.
    assert stats.dispatch_overhead_pct(3.3, [3, 1], 2) == \
        pytest.approx(100 * 0.3 / 3.3)


def test_dispatch_overhead_serial_is_pure_overhead():
    assert stats.dispatch_overhead_pct(4.0, [1.5, 1.5], 1) == \
        pytest.approx(25.0)


def test_dispatch_overhead_rejects_nonsense():
    with pytest.raises(ValueError):
        stats.dispatch_overhead_pct(0.0, [1.0], 1)
    with pytest.raises(ValueError):
        stats.dispatch_overhead_pct(1.0, [1.0], 0)


# ---- the probes do not perturb the simulation ------------------------------------


SMALL = workloads.ServeShape(files=4, file_pages=4, buffer_cache_pages=8,
                             users=40, reread_share=0.5, write_share=0.5)


def small_round(seed: int, traced: bool):
    serve = workloads.Serve("serve-churn", SMALL, seed)
    if not traced:
        return serve.round(serve.setup()), None
    recorder = spans.SpanRecorder()
    with spans.LayerProbes(recorder) as probes:
        result = serve.round(serve.setup())
        raw = probes.harvest()
    return result, (recorder, raw)


def test_same_seed_same_simulation_traced_or_not():
    plain, _ = small_round(3, traced=False)
    again, _ = small_round(3, traced=False)
    traced, (recorder, raw) = small_round(3, traced=True)
    assert plain.failed == 0 and not plain.errors
    assert plain.digest == again.digest == traced.digest
    # The probes saw the layers they wrap, and the profiler the cycles.
    assert recorder.calls["kernel.unix_server"] == plain.ops
    assert recorder.calls["vm.pmap"] > 0
    assert raw["sim.cycles"] > 0
    assert raw["oracle.violations"] == 0


def test_probes_restore_every_entry_point():
    from repro.hw.cache import Cache
    from repro.kernel.kernel import Kernel
    import repro.trace as rtrace

    before = (Cache.read_run, Kernel.__init__, rtrace.replay_trace)
    with spans.LayerProbes(spans.SpanRecorder()):
        assert Cache.read_run is not before[0]
    assert (Cache.read_run, Kernel.__init__, rtrace.replay_trace) == before


def test_different_seed_different_users():
    a, _ = small_round(3, traced=False)
    b, _ = small_round(4, traced=False)
    assert a.digest != b.digest
