"""A text file's steps filled in contiguous ranges by forked processes.

Imported only by the export path that forks, so that a command that never
forks does not load it.
"""
from __future__ import annotations

import os
import shutil
import tempfile


def fill_in_ranges(fh, path, fill, steps: int, processes: int) -> None:
    """Write steps 0..steps-1 to the text file `fh`, which becomes `path`,
    as `fill(file, start, stop)` writes steps start..stop-1, split into
    `processes` contiguous ranges of nearly equal size (one per step, if
    there are fewer steps).

    This process fills the first range straight into `fh`. A forked child
    fills each other range into an unnamed temporary file in `path`'s
    directory, which this process appends to `fh` in range order. Every
    child is reaped, and every temporary file closed, whatever happens.
    Raises OSError, naming `path`, when a child does not exit with status 0.
    """
    bounds = sorted({steps * i // processes for i in range(processes + 1)})
    ranges = list(zip(bounds, bounds[1:]))
    parts, pids = [], []
    try:
        for start, stop in ranges[1:]:
            parts.append(tempfile.TemporaryFile(dir=path.parent))
            pids.append(_fork_fill(fill, parts[-1], start, stop))
        fill(fh, *ranges[0])
        fh.flush()
        for (start, stop), part, pid in zip(ranges[1:], parts, pids):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                cause = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise OSError(f"{path}: the process writing steps {start + 1}..{stop} "
                              f"ended with {cause}")
            part.seek(0)
            shutil.copyfileobj(part, fh.buffer)
    finally:
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped above
                pass
        for part in parts:
            part.close()


def _fork_fill(fill, part, start: int, stop: int) -> int:
    """Fork a child that fills steps start..stop-1 into the binary file
    `part` and leaves through os._exit: 0 once they are written, 1 on any
    exception. It never returns or raises into the caller's code, and never
    flushes the stdio buffers it inherits. Returns the child's pid."""
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        with open(part.fileno(), "w", newline="", encoding="utf-8", closefd=False) as out:
            fill(out, start, stop)
        status = 0
    finally:
        os._exit(status)
