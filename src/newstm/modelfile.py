"""Binary model files, and the one write path for every workspace file.

`replacing` writes a file as `.<name>.<pid>.tmp` beside it, renames it into
place once complete and deletes it on any failure, so a crash never leaves
part of a file. A killed process cannot delete its temp file; whoever holds
the directory's lock removes it with `remove_stray_temps`. There is no
fsync: a power loss can still lose a write.

A model file is one line of UTF-8 JSON followed by the model's arrays, each
in `.npy` format (`numpy.lib.format`), in the order the header lists them:

    {"format": "newstm-lda", "version": 2, "meta": {...},
     "arrays": [{"name": "beta", "shape": [20, 14949], "dtype": "<f8"}, ...]}\\n
    <.npy beta><.npy theta>...

Arrays are stored C-ordered and little-endian, as `<f8` or `<i8`, and read
with `allow_pickle=False`. The `.npy` header is a pure function of dtype and
shape, so the same model always gives the same bytes.
"""

from __future__ import annotations

import csv
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np
from numpy.lib.format import read_array, write_array

VERSION = 2
_DTYPES = {"f": "<f8", "i": "<i8"}  # numpy dtype kind -> stored dtype

T = TypeVar("T")

_TEMP_NAME = re.compile(r"\..+\.\d+\.tmp")  # the names `replacing` writes to


@contextmanager
def replacing(path: str | Path, mode: str, **open_args) -> Iterator[IO]:
    """Open a temporary file to write; rename it to `path` on success, else delete it."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove_stray_temps(directory: Path) -> None:
    """Delete the temp files that killed writes left in `directory`; call it
    only while no other process can be writing there."""
    for path in directory.glob(".*.tmp"):
        if _TEMP_NAME.fullmatch(path.name):
            path.unlink(missing_ok=True)


def replace_text(path: str | Path, text: str) -> None:
    """Atomically write `text` to `path` as UTF-8."""
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Atomically write a header row, then `rows` as they are produced."""
    with replacing(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str | Path, header: Sequence[str]) -> Iterator[list[str]]:
    """Yield the rows after a first row that must be `header`."""
    with Path(path).open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != list(header):
            raise ValueError(f"{path}: expected a {','.join(header)!r} header, got {found}")
        for row in reader:
            if len(row) != len(header):
                n = reader.line_num
                raise ValueError(f"{path} line {n}: expected {len(header)} fields, got {len(row)}")
            yield row


def write_model(
    path: str | Path, fmt: str, meta: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Atomically write `meta` and the named float/int arrays to `path`."""
    stored = {
        name: np.ascontiguousarray(arr, dtype=_DTYPES[arr.dtype.kind])
        for name, arr in arrays.items()
    }
    header = {
        "format": fmt,
        "version": VERSION,
        "meta": meta,
        "arrays": [
            {"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str}
            for name, arr in stored.items()
        ],
    }
    with replacing(path, "wb") as fh:
        fh.write(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n")
        for arr in stored.values():
            write_array(fh, arr, version=(1, 0), allow_pickle=False)


def read_model(
    path: str | Path,
    fmt: str,
    retrain: str,
    build: Callable[[dict, dict[str, np.ndarray]], T],
) -> T:
    """Read a `fmt` model file and return `build(meta, arrays)`.

    Any malformed file, and any ValueError, LookupError or TypeError that
    `build` raises on its contents, becomes a ValueError that names the
    path and the `retrain` command which writes a valid file.
    """
    try:
        with Path(path).open("rb") as fh:
            meta, arrays = _read(fh, fmt)
        return build(meta, arrays)
    except (LookupError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path}: not a valid {fmt} model file ({exc}); re-run `{retrain}`"
        ) from exc


def _read(fh, fmt: str) -> tuple[dict, dict[str, np.ndarray]]:
    header = json.loads(fh.readline().decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("the first line is not a JSON object")
    if header.get("format") != fmt:
        raise ValueError(f"format is {header.get('format')!r}, expected {fmt!r}")
    if header.get("version") != VERSION:
        raise ValueError(
            f"version {header.get('version')!r}, expected {VERSION} "
            "(models from before version 2 were JSON)"
        )
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        name, shape, dtype = entry["name"], tuple(entry["shape"]), entry["dtype"]
        if dtype not in _DTYPES.values():
            raise ValueError(f"array {name!r} has unsupported dtype {dtype!r}")
        arr = read_array(fh, allow_pickle=False)
        if arr.shape != shape or arr.dtype.str != dtype:
            raise ValueError(
                f"array {name!r} is {arr.dtype.str}{list(arr.shape)}, "
                f"header says {dtype}{list(shape)}"
            )
        arrays[name] = arr
    if fh.read(1):
        raise ValueError("trailing bytes after the last array")
    return header["meta"], arrays
