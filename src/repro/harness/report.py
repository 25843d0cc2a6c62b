"""ASCII rendering for experiment tables and figure series.

Benchmarks print the same rows the paper's tables and figures report, plus
a dilated-vs-baseline error column the paper could only eyeball from
graphs. Everything renders as monospace tables so ``pytest -s`` or the
``repro-figure`` CLI shows results directly in a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = ["Table", "FigureResult", "Check"]


class Table:
    """A fixed-column ASCII table."""

    def __init__(self, columns: Sequence[str], title: str = "") -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values: Any) -> None:
        """Append one row; values are str()-ed (pre-format floats yourself)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([str(v) for v in values])

    def to_csv(self) -> str:
        """The table as CSV (header row + data rows), for offline plotting."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def render(self) -> str:
        """The table as a string (no trailing newline)."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


@dataclass
class Check:
    """One shape assertion attached to a figure (who wins, crossover, …)."""

    description: str
    passed: bool


@dataclass
class FigureResult:
    """Everything a benchmark prints and asserts for one paper figure."""

    figure_id: str
    title: str
    table: Table
    notes: List[str] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    #: Optional ASCII rendering of the figure's series (printed after the
    #: table — the paper shows graphs, so we do too).
    chart: Optional[str] = None

    def check(self, description: str, passed: bool) -> None:
        """Record a shape check."""
        self.checks.append(Check(description, bool(passed)))

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed_checks(self) -> List[Check]:
        return [check for check in self.checks if not check.passed]

    def render(self) -> str:
        """Full report: table, chart, notes, and check outcomes."""
        parts = [f"=== {self.figure_id}: {self.title} ===", self.table.render()]
        if self.chart:
            parts.append(self.chart)
        for note in self.notes:
            parts.append(f"  note: {note}")
        for check in self.checks:
            marker = "PASS" if check.passed else "FAIL"
            parts.append(f"  [{marker}] {check.description}")
        return "\n".join(parts)

    def write_csv(self, directory) -> str:
        """Dump the table to ``<directory>/<figure_id>.csv``; returns the path."""
        import os

        path = os.path.join(str(directory), f"{self.figure_id}.csv")
        with open(path, "w", newline="") as handle:
            handle.write(self.table.to_csv())
        return path
