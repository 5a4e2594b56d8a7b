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
import datetime
import json
import math
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Sequence, TypeVar, get_args, get_origin

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


def finite_float(field: str) -> float:
    """`field` as a float, which must be finite; a CSV or config converter."""
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def iso_date(field: str) -> datetime.date:
    """`field` as a date, which must be written YYYY-MM-DD; a CSV or JSON
    converter. `date.fromisoformat` alone also takes forms such as 20200117."""
    day = datetime.date.fromisoformat(field)
    if day.isoformat() != field:
        raise ValueError(f"{field!r} is not a YYYY-MM-DD date")
    return day


# What a message calls each field type `json_fields` checks.
_JSON_TYPE_NAMES = {
    str: "a string", int: "an integer", float: "a finite number", dict: "an object", list: "a list",
    list[str]: "a list of strings", list[int]: "a list of integers",
}


def _is_json(value: Any, kind: Any) -> bool:
    if get_origin(kind) is list:
        return type(value) is list and all(_is_json(item, get_args(kind)[0]) for item in value)
    if kind is float:  # an int is finite; math.isfinite would overflow on a huge one
        return type(value) is int or type(value) is float and math.isfinite(value)
    return type(value) is kind


def json_fields(obj: Any, types: dict[str, Any]) -> tuple:
    """The values of the fields of the JSON object `obj` that `types` names,
    in its order, each checked to be of its type exactly.

    A type is `str`, `int`, `float`, `dict`, `list`, `list[str]` or
    `list[int]`. A bool is not an int, a float is a finite int or float,
    and a list[T] is a list whose items are all T. A non-object, a missing
    field or a field of another type raises ValueError naming the field.
    """
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {_shown(obj)}")
    missing = [name for name in types if name not in obj]
    if missing:
        raise ValueError(f"missing fields {missing}")
    for name, kind in types.items():
        if not _is_json(obj[name], kind):
            raise ValueError(
                f"field {name!r} must be {_JSON_TYPE_NAMES[kind]}, got {_shown(obj[name])}"
            )
    return tuple(obj[name] for name in types)


def _shown(value: Any) -> str:
    # A library caller's value may not be JSON: a numpy float would print as
    # a plain number, and a numpy integer would make json.dumps raise.
    if type(value) in (dict, list, str, int, float, bool, type(None)):
        return json.dumps(value, default=repr, skipkeys=True)[:40]
    return repr(value)[:40]


def read_csv(
    path: str | Path,
    columns: dict[str, Callable[[str], Any]],
    check: Callable[[tuple], None] | None = None,
) -> Iterator[tuple]:
    """Yield the rows after a first row that must be the names of `columns`,
    each field converted by its column's function. `check`, if given, sees
    each converted row in file order, for rules that span rows.

    A short or long row, a field its function rejects with ValueError, or a
    row `check` rejects with ValueError raises ValueError naming the path
    and the line.
    """
    header = list(columns)
    with Path(path).open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ValueError(f"{path}: expected a {','.join(header)!r} header, got {found}")
        for row in reader:
            n = reader.line_num
            if len(row) != len(header):
                raise ValueError(f"{path} line {n}: expected {len(header)} fields, got {len(row)}")
            values = []
            for (name, convert), field in zip(columns.items(), row):
                try:
                    values.append(convert(field))
                except ValueError as exc:
                    raise ValueError(f"{path} line {n}: column {name!r}: {exc}") from exc
            row = tuple(values)
            if check is not None:
                try:
                    check(row)
                except ValueError as exc:
                    raise ValueError(f"{path} line {n}: {exc}") from exc
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
    # Format and version first: a JSON model of version 1 has neither meta nor arrays.
    found, version = json_fields(header, {"format": str, "version": int})
    if found != fmt:
        raise ValueError(f"format is {found!r}, expected {fmt!r}")
    if version != VERSION:
        raise ValueError(
            f"version {version}, expected {VERSION} (models from before version 2 were JSON)"
        )
    meta, entries = json_fields(header, {"meta": dict, "arrays": list})
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        name, shape, dtype = json_fields(entry, {"name": str, "shape": list[int], "dtype": str})
        if dtype not in _DTYPES.values():
            raise ValueError(f"array {name!r} has unsupported dtype {dtype!r}")
        arr = read_array(fh, allow_pickle=False)
        if list(arr.shape) != shape or arr.dtype.str != dtype:
            raise ValueError(
                f"array {name!r} is {arr.dtype.str}{list(arr.shape)}, header says {dtype}{shape}"
            )
        arrays[name] = arr
    if fh.read(1):
        raise ValueError("trailing bytes after the last array")
    return meta, arrays
