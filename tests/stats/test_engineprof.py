"""Unit tests for the engine profiler."""

from repro.simnet import engine
from repro.simnet.engine import Simulator
from repro.stats.engineprof import EngineProfiler, merge, profiled, render


def tick():
    pass


def tock():
    pass


def test_records_events_and_histogram():
    sim = Simulator()
    profiler = EngineProfiler()
    sim.attach_profiler(profiler)
    for i in range(3):
        sim.schedule(float(i + 1), tick)
    sim.schedule(4.0, tock)
    sim.run()
    assert profiler.events == 4
    assert profiler.by_component == {"tick": 3, "tock": 1}
    assert profiler.sims == [sim]


def test_aggregates_across_simulators():
    profiler = EngineProfiler()
    for count in (2, 5):
        sim = Simulator()
        sim.attach_profiler(profiler)
        for i in range(count):
            sim.schedule(float(i + 1), tick)
        sim.run()
    assert profiler.events == 7
    assert len(profiler.sims) == 2
    snap = profiler.snapshot()
    assert snap["events"] == 7
    assert snap["simulators"] == 2
    assert snap["by_component"] == {"tick": 7}


def test_snapshot_carries_heap_hygiene_counters():
    sim = Simulator()
    profiler = EngineProfiler()
    sim.attach_profiler(profiler)
    event = sim.schedule(1.0, tick)
    for i in range(200):  # force compaction sweeps
        event.reschedule(1.0 + i * 1e-6)
    sim.run()
    snap = profiler.snapshot()
    assert snap["compactions"] == sim.compactions > 0
    assert snap["dead_entries_reaped"] == sim.dead_entries_reaped > 0
    assert snap["max_heap_len"] == sim.max_heap_len
    assert snap["live_events"] == 0


def test_profiled_context_auto_attaches_and_clears():
    with profiled() as profiler:
        sim = Simulator()
        sim.schedule(1.0, tick)
        sim.run()
    assert profiler.events == 1
    assert engine._default_profiler is None
    assert Simulator()._profiler is None


def test_profiled_clears_default_on_error():
    try:
        with profiled():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert engine._default_profiler is None


def test_detach_stops_recording():
    sim = Simulator()
    profiler = EngineProfiler()
    sim.attach_profiler(profiler)
    sim.schedule(1.0, tick)
    sim.run()
    sim.attach_profiler(None)
    sim.schedule(1.0, tick)
    sim.run()
    assert profiler.events == 1


def test_profiling_does_not_perturb_results():
    def drive(sim):
        order = []

        def hop(n):
            order.append((sim.now, n))
            if n < 50:
                sim.schedule_transient(0.5, hop, n + 1)

        sim.schedule_transient(0.5, hop, 1)
        sim.run()
        return order, sim.events_processed

    plain = drive(Simulator())
    with profiled():
        observed = drive(Simulator())
    assert observed == plain


def test_render_mentions_throughput_and_components():
    sim = Simulator()
    profiler = EngineProfiler()
    sim.attach_profiler(profiler)
    sim.schedule(1.0, tick)
    sim.run()
    text = profiler.render()
    assert "events/sec" in text
    assert "tick" in text
    assert "compactions" in text


def test_named_counters_merged_across_sims_and_rendered():
    profiler = EngineProfiler()
    sims = [Simulator(), Simulator()]
    for index, sim in enumerate(sims):
        sim.attach_profiler(profiler)
        sim.counters["drop.loss"] = 3 + index
        sim.schedule(1.0, tick)
        sim.run()
    assert profiler.counters() == {"drop.loss": 7}
    snap = profiler.snapshot()
    assert snap["counters"] == {"drop.loss": 7}
    assert "drop.loss" in profiler.render()


def test_realtime_counters_split_into_own_section():
    profiler = EngineProfiler()
    sim = Simulator()
    sim.attach_profiler(profiler)
    sim.counters["realtime.deadline_miss"] = 2
    sim.counters["realtime.max_slip_ms"] = 7.5
    sim.counters["realtime.busy_frac"] = 0.42
    sim.counters["drop.loss"] = 1
    sim.schedule(1.0, tick)
    sim.run()
    assert profiler.realtime_counters() == {
        "deadline_miss": 2, "max_slip_ms": 7.5, "busy_frac": 0.42,
    }
    snap = profiler.snapshot()
    assert snap["realtime"]["deadline_miss"] == 2
    rendered = profiler.render()
    assert "realtime pacing:" in rendered
    assert "deadline_miss" in rendered
    # The generic counter section excludes the realtime namespace.
    generic_start = rendered.index("  counters:")
    assert "realtime." not in rendered[generic_start:]


def _profile_of(ticks, tocks, loss):
    profiler = EngineProfiler()
    sim = Simulator()
    sim.attach_profiler(profiler)
    sim.counters["drop.loss"] = loss
    for i in range(ticks):
        sim.schedule(float(i + 1), tick)
    for i in range(tocks):
        sim.schedule(float(i + 1), tock)
    sim.run()
    return profiler


def test_merge_sums_counts_and_takes_peak_heap_max():
    first, second = _profile_of(3, 1, 2), _profile_of(1, 4, 5)
    a, b = first.snapshot(), second.snapshot()
    merged = merge([a, b])
    assert merged["events"] == 9
    assert merged["simulators"] == 2
    assert merged["wall_s"] == a["wall_s"] + b["wall_s"]
    assert merged["max_heap_len"] == max(a["max_heap_len"],
                                         b["max_heap_len"])
    assert merged["counters"] == {"drop.loss": 7}
    assert merged["by_component"] == {"tock": 5, "tick": 4}
    assert list(merged["by_component"]) == ["tock", "tick"]


def test_merge_of_one_renders_like_the_profiler():
    profiler = _profile_of(2, 1, 1)
    snap = profiler.snapshot()
    timed = ("  wall time", "  events/sec")

    def untimed(text):
        return [line for line in text.splitlines()
                if not line.startswith(timed)]

    assert untimed(render(merge([snap]))) == untimed(render(snap))
    assert untimed(profiler.render()) == untimed(render(snap))


def test_merge_of_nothing_is_a_zero_profile():
    merged = merge([])
    assert merged["events"] == 0
    assert merged["by_component"] == {}
    assert "events executed" in render(merged)
