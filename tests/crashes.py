"""Crash injection for the custody store: a write step that never happens."""
import contextlib
from pathlib import Path
from unittest import mock

from custodysim import store as store_module


class Crash(Exception):
    """Stands for the process dying at a write step."""


@contextlib.contextmanager
def crash_at(step, tear=False):
    """Raise Crash in place of the step-th file write the store makes.

    The writes counted are a ledger line appended and a blob file
    written or deleted. With tear, a failing append first writes half of
    its line. Yields the names of the journals that got a whole line.
    """
    count, appended = 0, []
    real_append = store_module._append_line

    def hook(real):
        def write(*args, **kwargs):
            nonlocal count
            count += 1
            if count == step:
                if tear and real is real_append:
                    path, line = args
                    with open(path, "a") as journal:
                        journal.write(line[:len(line) // 2])
                raise Crash(step)
            result = real(*args, **kwargs)
            if real is real_append:
                appended.append(Path(args[0]).name)
            return result
        return write

    with mock.patch.object(store_module, "_append_line", hook(real_append)), \
            mock.patch.object(Path, "write_bytes", hook(Path.write_bytes)), \
            mock.patch.object(Path, "unlink", hook(Path.unlink)):
        yield appended
