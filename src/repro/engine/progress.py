"""Batch progress reporting, decoupled from the runner.

The runner only calls the three-method listener protocol below, so any
front end (CLI spinner, pytest plugin, log file) can observe a batch
without the engine knowing about it.  Implementations provided here:
:class:`NullProgress` (silent, the default) and :class:`TextProgress`
(one updating line on a stream, suitable for interactive terminals).
"""

from __future__ import annotations

import sys


class NullProgress:
    """Silent listener (the runner's default)."""

    def start(self, total: int, label: str = "") -> None:
        pass

    def advance(self, done: int, total: int, label: str = "") -> None:
        pass

    def finish(self, total: int, label: str = "") -> None:
        pass


class TextProgress:
    """One updating status line per batch on ``stream`` (default stderr)."""

    def __init__(self, stream=None, min_total: int = 2):
        self.stream = stream if stream is not None else sys.stderr
        #: Batches smaller than this stay silent (no flicker for 1 job).
        self.min_total = min_total
        self._active = False

    def _emit(self, text: str, end: str = "") -> None:
        try:
            self.stream.write(f"\r{text}\x1b[K{end}")
            self.stream.flush()
        except (OSError, ValueError):  # closed/broken stream: go silent
            self._active = False

    def start(self, total: int, label: str = "") -> None:
        self._active = total >= self.min_total
        if self._active:
            self._emit(f"engine: 0/{total} {label}".rstrip())

    def advance(self, done: int, total: int, label: str = "") -> None:
        if self._active:
            self._emit(f"engine: {done}/{total} {label}".rstrip())

    def finish(self, total: int, label: str = "") -> None:
        if self._active:
            self._emit("", end="")
            self._active = False
