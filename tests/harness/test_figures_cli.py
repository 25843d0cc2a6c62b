"""Tests for the figure registry and CLI (cheap figures only)."""

import contextlib
import io

import pytest

from repro.harness import cli
from repro.harness.figures import CELL_MODEL, figure_ids
from repro.harness.runner import run_sweep


def test_registry_covers_design_doc():
    expected = {
        "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        "fig9", "fig10", "ablation1", "ablation2", "ext1", "ext2", "ext3",
        "ext4", "ext5", "ext6",
    }
    assert set(figure_ids()) == expected


def test_run_figure_unknown_id():
    with pytest.raises(KeyError):
        run_sweep(["fig99"], jobs=1, cache_dir=None)


def test_table1_runs_and_passes():
    [result] = run_sweep(["table1"], jobs=1, cache_dir=None).figures
    assert result.all_passed
    assert result.table.rows


def test_table2_runs_and_passes():
    [result] = run_sweep(["table2"], jobs=1, cache_dir=None).figures
    assert result.all_passed


def test_every_figure_has_docstring():
    for figure_id, model in CELL_MODEL.items():
        assert model.assemble.__doc__, f"{figure_id} has no docstring"


def test_cli_list(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out
    assert "ablation2" in out


def test_cli_no_args_lists(capsys):
    assert cli.main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_cli_unknown_figure(capsys):
    assert cli.main(["nope"]) == 2


def test_cli_runs_table1(capsys):
    assert cli.main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "Perceived resources" in out


def test_cli_impair_rejected_for_figures_without_the_axis(capsys):
    assert cli.main(["fig3", "--impair", "bernoulli:rate=0.01"]) == 2
    assert "no --impair axis" in capsys.readouterr().err


def test_run_figure_impair_rejected_without_axis():
    with pytest.raises(ValueError, match="no --impair axis"):
        run_sweep(["table1"], jobs=1, impair="bernoulli:rate=0.01",
                  cache_dir=None)


def test_cli_csv_export(tmp_path, capsys):
    assert cli.main(["table1", "--csv", str(tmp_path)]) == 0
    csv_file = tmp_path / "table1.csv"
    assert csv_file.exists()
    header = csv_file.read_text().splitlines()[0]
    assert "TDF" in header


def test_cli_blank_schedule_is_parsed_not_dropped(capsys):
    """``--schedule ""`` is a bad spec, not an absent one."""
    assert cli.main(["table1", "--no-cache", "--schedule", ""]) == 2
    assert "unknown schedule kind" in capsys.readouterr().err


def test_cli_blank_trace_is_parsed_not_dropped(capsys):
    """``--trace ""`` parses as the default point, exactly as
    ``--trace bottleneck`` does, so a figure without traceable cells
    refuses both."""
    for spec in ("", "bottleneck"):
        assert cli.main(["table1", "--no-cache", "--trace", spec]) == 2
        assert "no traceable cells" in capsys.readouterr().err


def test_cli_rejects_zero_shards(capsys):
    assert cli.main(["table1", "--no-cache", "--shards", "0"]) == 2
    assert "--shards must be >= 1" in capsys.readouterr().err


def test_cli_profile_engine_refuses_every_mode(capsys):
    """Only ``--shards``: a sharded cell's engines live in its shard
    workers, out of the cell's profiler's reach. Every other mode
    composes (see test_trace_integration)."""
    assert cli.main(["table2", "--profile-engine", "--shards", "2"]) == 2
    err = capsys.readouterr().err
    assert "--shards cannot be combined with --profile-engine" in err


def _cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["table2", "ablation2", "--no-cache", *argv]) == 0
    return out.getvalue()


def _split_profiles(text):
    """(stdout without the profile blocks, the profile blocks' lines)."""
    kept, profile, inside = [], [], False
    for line in text.splitlines():
        if line == "engine profile:":
            inside = True
        elif not line:
            inside = False
        (profile if inside else kept).append(line)
    return kept, profile


def test_cli_profile_engine_spans_the_pool():
    plain = _cli_stdout("--jobs", "1")
    rows, profile = _split_profiles(_cli_stdout("--jobs", "1",
                                                "--profile-engine"))
    pooled_rows, pooled = _split_profiles(_cli_stdout("--jobs", "2",
                                                      "--profile-engine"))
    # The figure rows are untouched by profiling, at any --jobs.
    assert rows == pooled_rows == plain.splitlines()
    assert profile.count("engine profile:") == 2
    # Events and the per-component histogram merge to the same profile
    # whichever process ran each cell; only wall-clock lines differ.
    timed = ("  wall time", "  events/sec")
    assert [line for line in profile if not line.startswith(timed)] == \
        [line for line in pooled if not line.startswith(timed)]
    assert any("components:" in line for line in profile)
