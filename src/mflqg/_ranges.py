"""Contiguous ranges of work done in forked processes, one child a range.

Imported only by the paths that fork (the trace-CSV export and the Monte
Carlo pass), so that a command that never forks does not load it.
"""
from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager


def split(count: int, parts: int, unit: int = 1) -> list:
    """Contiguous ranges (start, stop) that cover 0..count-1 in at most
    `parts` nearly equal numbers of whole `unit`s, none of them empty."""
    units = -(-count // unit)
    bounds = sorted({min(count, unit * (units * i // parts)) for i in range(parts + 1)})
    return list(zip(bounds, bounds[1:]))


@contextmanager
def forked_ranges(ranges, fill, directory, what: str, first: int):
    """Yield, in range order and rewound, one unnamed temporary binary file
    in `directory` (None: the default temporary directory) for each pair
    (start, stop) of `ranges`, into which a forked child wrote
    `fill(file, start, stop)`.

    The child leaves through os._exit: 0 once its result is flushed, 1 on
    any exception. It never returns or raises into the caller's code, and
    never flushes the stdio buffers it inherits. This process does no
    range itself; it reaps every child, and closes every file, whatever
    happens. Raises OSError when a child does not exit with status 0,
    naming its range as `what` and the range's items counted from `first`.
    """
    parts, pids = [], []
    try:
        for start, stop in ranges:
            parts.append(tempfile.TemporaryFile(dir=directory))
            pid = os.fork()
            if not pid:
                status = 1
                try:
                    fill(parts[-1], start, stop)
                    parts[-1].flush()
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        for (start, stop), part, pid in zip(ranges, parts, pids):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                cause = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise OSError(f"{what} {start + first}..{stop - 1 + first} ended with {cause}")
            part.seek(0)
        yield parts
    finally:
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped above
                pass
        for part in parts:
            part.close()
