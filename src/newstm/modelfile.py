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

Arrays are stored C-ordered and little-endian, as `<f8` or `<i8`. The
`.npy` header is a pure function of dtype and shape, so the same model
always gives the same bytes.

An array need not be in memory to be written: given as `Blocks`, its shape
plus its blocks along axis 0, the header and its `.npy` header are written
from the shape, and each block as it comes. The bytes are those of the whole
array.

Every read goes through `BlockFile`, which reads only the arrays its
reader asks for, each whole or a run of consecutive leading-axis blocks at
a time, with one seek and one `readinto`; so every reader keeps one set of
rules. Each array's `.npy` header must be format 1.0, in C order and the
shape and dtype of its header entry, and the file must be exactly as long
as its headers say. All of this, and the reader's check of the header, is
done when the file is opened, before any array is allocated, so a header
that claims more rows than the file holds is an error, not an allocation
of that size.
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
from typing import (
    IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar,
)

# numpy is imported only by the array-file code below, so that the text,
# CSV and JSON helpers load without it.
if TYPE_CHECKING:
    import numpy as np

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


def _exactly(kind: type) -> Callable[[Any], bool]:
    return lambda value: type(value) is kind


def _list_of(kind: type) -> Callable[[Any], bool]:
    return lambda value: type(value) is list and {*map(type, value)} <= {kind}


def _finite_number(value: Any) -> bool:
    # An int is finite; math.isfinite would overflow on a huge one.
    return type(value) is int or type(value) is float and math.isfinite(value)


# Each field type `json_fields` checks: what a message calls it, and its test,
# worked out once here rather than from the type for every value.
_JSON_TYPES: dict[Any, tuple[str, Callable[[Any], bool]]] = {
    str: ("a string", _exactly(str)),
    int: ("an integer", _exactly(int)),
    float: ("a finite number", _finite_number),
    dict: ("an object", _exactly(dict)),
    list: ("a list", _exactly(list)),
    list[str]: ("a list of strings", _list_of(str)),
    list[int]: ("a list of integers", _list_of(int)),
}


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
    try:
        values = tuple(map(obj.__getitem__, types))
    except KeyError:
        missing = [name for name in types if name not in obj]
        raise ValueError(f"missing fields {missing}") from None
    for value, (name, kind) in zip(values, types.items()):
        # A value of exactly its type passes, save a float, which must be finite.
        if type(value) is not kind or kind is float:
            what, check = _JSON_TYPES[kind]
            if not check(value):
                raise ValueError(f"field {name!r} must be {what}, got {_shown(value)}")
    return values


def _shown(value: Any) -> str:
    # A library caller's value may not be JSON: a numpy float would print as
    # a plain number, and a numpy integer would make json.dumps raise.
    if type(value) in (dict, list, str, int, float, bool, type(None)):
        return json.dumps(value, default=repr, skipkeys=True)[:40]
    return repr(value)[:40]


def read_csv(
    path: str | Path, columns: dict[str, Callable[[str], Any]], check: Callable[[tuple], None]
) -> Iterator[tuple]:
    """Yield the rows after a first row that must be the names of `columns`,
    each field converted by its column's function. `check` sees each
    converted row in file order, for rules that span rows.

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
            try:
                check(row)
            except ValueError as exc:
                raise ValueError(f"{path} line {n}: {exc}") from exc
            yield row


class Blocks(NamedTuple):
    """An array given as its shape, its dtype and its blocks along axis 0, in
    order: the block lengths sum to shape[0], and each block has the trailing
    shape and the dtype kind. The blocks may be produced as they are written."""

    shape: tuple[int, ...]
    dtype: np.dtype
    blocks: Iterable[np.ndarray]


def _stored_dtype(name: str, dtype: np.dtype) -> str:
    import numpy as np

    stored = _DTYPES.get(np.dtype(dtype).kind)
    if stored is None:
        raise ValueError(f"array {name!r} has dtype {np.dtype(dtype)}, not a float or int dtype")
    return stored


def write_model(
    path: str | Path, fmt: str, meta: dict, arrays: dict[str, np.ndarray | Blocks]
) -> None:
    """Atomically write `meta` and the named float/int arrays to `path`.

    An ndarray is one block. A `Blocks` stream that is short, long or of
    the wrong shape or dtype kind raises ValueError, and no file is left.
    """
    streams = {
        name: arr if isinstance(arr, Blocks) else Blocks(arr.shape, arr.dtype, (arr,))
        for name, arr in arrays.items()
    }
    entries = [
        {"name": name, "shape": list(map(int, arr.shape)), "dtype": _stored_dtype(name, arr.dtype)}
        for name, arr in streams.items()
    ]
    header = {"format": fmt, "version": VERSION, "meta": meta, "arrays": entries}
    with replacing(path, "wb") as fh:
        fh.write(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n")
        for name, arr in streams.items():
            write_array(fh, arr, name=name)


def write_array(fh: IO[bytes], array: Blocks, *, name: str) -> None:
    """Write one model array: its `.npy` header, then its blocks as they come.
    The bytes are those numpy's `write_array` gives the whole array."""
    import numpy as np
    from numpy.lib.format import write_array_header_1_0

    shape, dtype = tuple(int(n) for n in array.shape), _stored_dtype(name, array.dtype)
    write_array_header_1_0(fh, {"descr": dtype, "fortran_order": False, "shape": shape})
    rows = 0
    for block in array.blocks:
        fits = block.ndim == len(shape) and block.shape[1:] == shape[1:]
        if not fits or block.dtype.kind != np.dtype(dtype).kind:
            raise ValueError(
                f"array {name!r}: a block of {block.dtype}{list(block.shape)} "
                f"does not fit {dtype}{list(shape)}"
            )
        rows += len(block)
        if rows > shape[0]:
            raise ValueError(f"array {name!r}: the blocks hold more than {shape[0]} rows")
        fh.write(np.ascontiguousarray(block, dtype=dtype))
    if rows != shape[0]:
        raise ValueError(f"array {name!r}: the blocks hold {rows} rows, not {shape[0]}")


class BlockFile:
    """A model file held open to read its arrays, each whole or a run of
    leading-axis blocks at a time, with one seek and one `readinto`.

    Opening it checks the header line: the format, the version, and each
    array's name, shape and supported dtype. It then reads each array's
    `.npy` header, which must be format 1.0, C order and the array's
    header entry, and checks that the file ends where the last array does,
    all before any array is allocated; `check(meta, shapes)` then gives
    `self.header`. A fault in any of these, or a ValueError, LookupError or
    TypeError from `check`, is a ValueError that names the path and the
    `retrain` command.
    """

    def __init__(
        self,
        path: str | Path,
        fmt: str,
        retrain: str,
        check: Callable[[dict, dict[str, tuple[int, ...]]], T],
    ) -> None:
        from numpy.lib.format import read_array_header_1_0, read_magic

        self._fh = fh = Path(path).open("rb")
        self._source = (path, fmt, retrain)
        self._layout: dict[str, tuple[int, tuple[int, ...], np.dtype]] = {}  # offset, shape, dtype
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            # Format and version first: a JSON model of version 1 has neither meta nor arrays.
            found, version = json_fields(header, {"format": str, "version": int})
            if found != fmt:
                raise ValueError(f"format is {found!r}, expected {fmt!r}")
            if version != VERSION:
                raise ValueError(
                    f"version {version}, expected {VERSION} "
                    "(models from before version 2 were JSON)"
                )
            meta, entries = json_fields(header, {"meta": dict, "arrays": list})
            size = os.fstat(fh.fileno()).st_size
            for entry in entries:
                fields = {"name": str, "shape": list[int], "dtype": str}
                name, shape, dtype = json_fields(entry, fields)
                if dtype not in _DTYPES.values():
                    raise ValueError(f"array {name!r} has unsupported dtype {dtype!r}")
                if min(shape, default=0) < 0:
                    raise ValueError(f"array {name!r} has shape {shape}, a length below 0")
                if read_magic(fh) != (1, 0):  # as write_model writes it
                    raise ValueError(f"array {name!r} is not in .npy format 1.0")
                found_shape, fortran, found_dtype = read_array_header_1_0(fh)
                if list(found_shape) != shape or found_dtype.str != dtype:
                    raise ValueError(
                        f"array {name!r} is {found_dtype.str}{list(found_shape)}, "
                        f"header says {dtype}{shape}"
                    )
                if fortran:
                    raise ValueError(f"array {name!r} is stored in Fortran order")
                offset = fh.tell()
                end = offset + math.prod(shape) * found_dtype.itemsize
                if end > size:
                    raise ValueError(f"the file is {size} bytes, its header says {end}: truncated")
                self._layout[name] = (offset, tuple(shape), found_dtype)
                fh.seek(end)
            if fh.tell() != size:
                raise ValueError("trailing bytes after the last array")
            self.header = check(meta, {name: shape for name, (_, shape, _) in self._layout.items()})
        except (LookupError, TypeError, ValueError) as exc:
            fh.close()
            raise self.invalid(exc) from exc
        except BaseException:
            fh.close()
            raise

    def layout(self, name: str) -> tuple[tuple[int, ...], np.dtype]:
        """The shape and dtype of array `name`."""
        _, shape, dtype = self._layout[name]
        return shape, dtype

    def invalid(self, exc: Exception) -> ValueError:
        """`exc` as the ValueError that names the path and the `retrain`
        command, as every fault in the file is reported."""
        path, fmt, retrain = self._source
        return ValueError(f"{path}: not a valid {fmt} model file ({exc}); re-run `{retrain}`")

    def rows(
        self, name: str, start: int = 0, stop: int | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Blocks start..stop-1 of array `name` along axis 0, by default the
        whole array, as one array read into `out` if given."""
        import numpy as np

        offset, shape, dtype = self._layout[name]
        stop = shape[0] if stop is None else stop
        if not 0 <= start <= stop <= shape[0]:
            raise IndexError(f"blocks {start}..{stop - 1} of array {name!r}, which has {shape[0]}")
        shape = (stop - start, *shape[1:])
        if out is None:
            out = np.empty(shape, dtype=dtype)
        elif out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-ordered {dtype}{list(shape)} array")
        self._fh.seek(offset + start * math.prod(shape[1:]) * dtype.itemsize)
        if self._fh.readinto(out) != out.nbytes:
            raise self.invalid(ValueError(f"array {name!r} is cut short"))
        return out

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> BlockFile:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
