"""Shared utilities: ascii table rendering and stderr output."""

import sys

from repro.util.tables import Table, format_float, format_int

__all__ = [
    "Table",
    "format_float",
    "format_int",
    "diag",
]


def diag(*lines: str) -> None:
    """Print diagnostic/summary text to **stderr**.

    Every diagnostic line in the CLI and experiment pipeline goes
    through this one helper: stdout is reserved for results (experiment
    tables, marker listings) and must stay byte-identical regardless of
    caching, parallelism, or telemetry settings.
    """
    for line in lines:
        print(line, file=sys.stderr)
