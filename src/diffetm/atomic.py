"""Atomic artifact writes: a temp file in the target's directory, then
os.replace, so that a reader of any artifact sees either the old file or
the whole new one, and a failed write leaves no temp file behind."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable


def replace_via_temp(path: str | Path, write: Callable[[Path], None]) -> None:
    """write(temp) a temp file in path's directory, then rename it to path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_chunks(path: str | Path, chunks: Iterable) -> None:
    """Write the bytes-like chunks to path, one after another, atomically."""

    def write(tmp: Path) -> None:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)

    replace_via_temp(path, write)


def write_text(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8, atomically."""
    write_chunks(path, [text.encode("utf-8")])
