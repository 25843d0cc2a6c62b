"""The execution-mode layer: capability, cell rewrites and fail-fast checks.

``data/mode_rewrites.json`` holds ``canonical(kwargs)`` of every cell of
fig3, fig5, ext5 and ext6 after each mode rewrite, as produced before
the mode layer existed. Canonical strings, not tokens: a token also
mixes in the package version. Equal strings mean every rewritten cell
keeps its cache key.
"""

import json
from pathlib import Path

import pytest

from repro.core.dilation import NetworkProfile
from repro.harness import modes
from repro.harness.experiments import (
    RUNNER_PARAMETERS, RUNNERS, run_bittorrent, run_bulk,
)
from repro.harness.figures import CELL_MODEL
from repro.harness.modes import accepts, apply_modes
from repro.harness.runner import CellSpec, canonical
from repro.simnet.errors import ConfigurationError
from repro.simnet.schedule import ScheduleSpec
from repro.simnet.units import mbps, ms
from repro.trace.spec import TraceSpec

PINS = json.loads(
    (Path(__file__).parent / "data" / "mode_rewrites.json").read_text()
)

MODES = {
    "trace": TraceSpec.parse("bottleneck"),
    "shards": 2,
    "fidelity": "hybrid",
    "schedule": ScheduleSpec.parse("leo"),
}

PROFILE = NetworkProfile.from_rtt(mbps(10), ms(20))


def _canonical(cells):
    return {spec.key: canonical(spec.kwargs) for spec in cells}


@pytest.mark.parametrize("figure", ["fig3", "fig5", "ext5", "ext6"])
@pytest.mark.parametrize("axis", [*MODES, "all"])
def test_rewritten_cells_keep_their_canonical_kwargs(figure, axis):
    requested = MODES if axis == "all" else {axis: MODES[axis]}
    cells, _ = apply_modes(CELL_MODEL[figure].cells(None), requested)
    assert _canonical(cells) == PINS[figure][axis]


def test_explicit_zero_salt_survives_sharding():
    cells = [
        CellSpec(spec.figure_id, spec.key, spec.runner,
                 dict(spec.kwargs, delay_salt=0.0))
        for spec in CELL_MODEL["ext5"].cells(None)
    ]
    sharded, _ = apply_modes(cells, {"shards": 2})
    assert _canonical(sharded) == PINS["ext5-salt0"]["shards"]
    assert all(spec.kwargs["delay_salt"] == 0.0 for spec in sharded)


def test_capability_comes_from_the_signatures():
    takes = {
        axis: {name for name in RUNNERS if accepts(name, axis)}
        for axis in modes.AXES
    }
    assert takes == {
        "trace": {"run_bulk", "run_bittorrent"},
        "shards": {"run_bulk", "run_bittorrent"},
        "fidelity": {"run_bulk", "run_bittorrent"},
        "schedule": {"run_bulk", "run_bittorrent", "run_starlink"},
    }


def test_refused_cells_pass_through_unchanged():
    cells = [
        CellSpec("f", "a", "run_starlink", {"tdf": 1}),
        CellSpec("f", "b", "run_web", {"tdf": 1}),
    ]
    out, refused = apply_modes(cells, {"schedule": MODES["schedule"],
                                       "shards": 2})
    assert refused == {"schedule": ["b"], "shards": ["a", "b"]}
    assert out[0].kwargs == {"tdf": 1, "schedule": MODES["schedule"]}
    assert out[1].kwargs == {"tdf": 1}
    assert out[1].token() == cells[1].token()


@pytest.fixture()
def no_workers(monkeypatch):
    """Fail the test if a call gets as far as spawning shard workers."""

    def refuse(*args, **kwargs):
        raise AssertionError("run_sharded reached")

    monkeypatch.setattr(modes, "run_sharded", refuse)


def _bulk(**kwargs):
    return run_bulk(PROFILE, 1, duration_s=0.1, **kwargs)


def _swarm(**kwargs):
    return run_bittorrent(PROFILE, 1, leechers=2, file_bytes=64 * 1024,
                          seed=7, **kwargs)


@pytest.mark.parametrize("runner", [_bulk, _swarm])
@pytest.mark.parametrize("kwargs, match", [
    (dict(realtime=True, shards=2), "realtime"),
    (dict(fidelity="fluid"), "fidelity"),
    (dict(fidelity="fluid", shards=2), "fidelity"),
    (dict(trace=TraceSpec(timers=True), shards=2), "timers"),
])
def test_bad_mode_combinations_fail_before_any_worker(
    no_workers, runner, kwargs, match,
):
    with pytest.raises(ConfigurationError, match=match):
        runner(**kwargs)


def test_dumbbell_refuses_three_shards_before_any_worker(no_workers):
    with pytest.raises(ConfigurationError, match="exactly 2 shards"):
        _bulk(shards=3)


def test_sharded_dispatch_forwards_every_argument(monkeypatch):
    """The worker call is the caller's own arguments, not a copy of
    some of them: every parameter but the shard ones arrives."""
    seen = {}

    def capture(runner_name, kwargs, shards, assignment):
        seen.update(runner=runner_name, kwargs=kwargs, shards=shards)
        raise RuntimeError("stop")

    monkeypatch.setattr(modes, "run_sharded", capture)
    with pytest.raises(RuntimeError, match="stop"):
        _swarm(shards=2, timer_salt=0.5, delay_salt=1e-6)
    assert seen["runner"] == "run_bittorrent"
    assert seen["shards"] == 2
    assert seen["kwargs"]["timer_salt"] == 0.5
    assert set(seen["kwargs"]) == (
        RUNNER_PARAMETERS["run_bittorrent"] - {"shards", "_shard"}
    )
