"""Plain-text reporting helpers shared by the experiment drivers and benchmarks."""

from __future__ import annotations

import sys
import time

__all__ = ["format_table", "relative_change", "SweepReporter"]


def format_table(rows: list[dict], columns: list[str] | None = None,
                 float_format: str = "{:.3f}") -> str:
    """Render a list of dictionaries as an aligned text table.

    ``columns`` fixes the column order; by default the keys of the first row
    are used.  Floats are formatted with ``float_format``; other values are
    converted with ``str``.
    """
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0].keys())

    def render(value) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [max(len(column), *(len(line[i]) for line in rendered))
              for i, column in enumerate(columns)]
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join("  ".join(cell.ljust(width) for cell, width in zip(line, widths))
                     for line in rendered)
    return "\n".join([header, separator, body])


class SweepReporter:
    """Parent-side consumer of sweep progress: task events and outcomes.

    The parallel executor never lets workers write to the terminal; instead
    the parent feeds this reporter, which prints one line per experiment as
    it finishes (plus retry notices) and a final one-line summary whose
    ``N ran / N cached / N failed`` counts the CI smoke job asserts on.
    """

    def __init__(self, total: int, stream=None, verbose: bool = True):
        self.total = total
        self.stream = stream if stream is not None else sys.stdout
        self.verbose = verbose
        self.outcomes = []
        self._started = time.perf_counter()

    # -- TaskEvent hook (live, completion order) ---------------------------
    def on_event(self, event) -> None:
        if self.verbose and event.kind == "retrying":
            print(f"?? {event.key}: attempt {event.attempt} failed "
                  f"({event.error}); retrying", file=self.stream)

    # -- Outcome hook (one per experiment) ---------------------------------
    def on_outcome(self, outcome) -> None:
        self.outcomes.append(outcome)
        if not self.verbose:
            return
        position = f"[{len(self.outcomes)}/{self.total}]"
        if not outcome.ok:
            first_line = (outcome.error or "failed").splitlines()[0]
            print(f"!! {position} {outcome.name} @ {outcome.scale}: FAILED "
                  f"({first_line})", file=self.stream)
        else:
            status = ("cached" if outcome.cache_hit
                      else f"ran in {outcome.elapsed_seconds:.1f}s")
            print(f"== {position} {outcome.name} @ {outcome.scale}: {status} "
                  f"-> {outcome.path}", file=self.stream)

    # -- Summary -----------------------------------------------------------
    @property
    def failed(self):
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def cached(self):
        return [outcome for outcome in self.outcomes if outcome.ok and outcome.cache_hit]

    @property
    def ran(self):
        return [outcome for outcome in self.outcomes
                if outcome.ok and not outcome.cache_hit]

    def summary_line(self) -> str:
        elapsed = time.perf_counter() - self._started
        return (f"sweep: {len(self.outcomes)} experiments | {len(self.ran)} ran | "
                f"{len(self.cached)} cached | {len(self.failed)} failed | "
                f"{elapsed:.1f}s")

    def print_summary(self) -> None:
        print(self.summary_line(), file=self.stream)
        for outcome in self.failed:
            print(f"--- {outcome.name} failure ---\n{outcome.error}", file=self.stream)


def relative_change(new_value: float, reference_value: float) -> float:
    """Relative change ``(new - reference) / reference`` (negative = reduction)."""
    if reference_value == 0:
        return 0.0
    return (new_value - reference_value) / reference_value
