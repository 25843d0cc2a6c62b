"""Shared machinery for the figure benchmarks.

Each benchmark regenerates one table/figure of the paper through the cell
sweep (``run_sweep`` at ``jobs=1``, in-process), prints the paper-style
rows (run pytest with ``-s`` to see them), and fails if any shape check
fails. ``benchmark.pedantic`` with a single round keeps pytest-benchmark
from re-running multi-minute simulations; the recorded time is the full
figure-regeneration time. The session shares one result cache, so fig8
reuses the web sweep fig7 already ran.
"""

import os

import pytest

from repro.harness.runner import run_sweep

#: The session's cell cache directory (set by :func:`_session_cell_cache`).
_CELL_CACHE = None


@pytest.fixture(scope="session", autouse=True)
def _session_cell_cache(tmp_path_factory):
    global _CELL_CACHE
    _CELL_CACHE = str(tmp_path_factory.mktemp("cell-cache"))


@pytest.fixture(scope="session")
def cpu_count():
    """Logical cores available to this run.

    The parallelism benchmarks (``test_runner_parallel``,
    ``test_shard_scale``) record this in their BENCH json and assert
    their speedup bars only on machines with enough cores to clear them
    (``speedup_asserted`` in the json says which happened) — a shared
    1-vCPU CI runner cannot meaningfully demonstrate a speedup, but its
    correctness checks still run.
    """
    return os.cpu_count() or 1


@pytest.fixture(scope="session")
def bench_provenance(cpu_count):
    """Uniform provenance stamp for every BENCH_*.json record.

    Returns a callable: ``bench_provenance(asserted)`` yields the two keys
    each benchmark json must carry — the machine's ``cpu_count`` and
    whether the benchmark's headline bar was actually asserted on this
    machine (``speedup_asserted``). A number regenerated on a loaded
    1-vCPU CI runner is then distinguishable from one produced on a real
    box when reviewing committed BENCH files.
    """

    def stamp(speedup_asserted=True):
        return {
            "cpu_count": cpu_count,
            "speedup_asserted": bool(speedup_asserted),
        }

    return stamp


def regenerate(benchmark, figure_id):
    """Run one figure under the benchmark fixture and assert its checks."""
    outcome = benchmark.pedantic(
        run_sweep, args=([figure_id],),
        kwargs={"jobs": 1, "cache_dir": _CELL_CACHE},
        rounds=1, iterations=1,
    )
    [result] = outcome.figures
    print()
    print(result.render())
    failed = result.failed_checks()
    assert not failed, f"{figure_id} shape checks failed: " + "; ".join(
        check.description for check in failed
    )
    return result
