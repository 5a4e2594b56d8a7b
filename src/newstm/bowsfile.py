"""The bags of words of a `write_bows` file, read a chosen set of rows at
a time.

`newstm.preprocess.read_bows` reads every row through `BowsFile`, and
`newstm train --mode dtm` reads each slice's rows when the slice starts.
numpy and `newstm.preprocess` are imported when a file is opened, so that
`newstm.cli` can import this module at start: a module compiled after numpy
has loaded raises a command's peak RSS by about its compile's memory.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from newstm.modelfile import BlockFile, json_fields

if TYPE_CHECKING:
    from newstm.preprocess import Bows


class BowsFile:
    """A `write_bows` file held open to read the bags of chosen documents.

    Opening it reads the header and doc_lengths, and makes the checks of
    `Bows` that span documents: the header fields, unique doc ids, flat
    integer arrays, vocab_size and doc_lengths against the entry count.
    `select` reads only the rows it is asked for, each run of consecutive
    rows with one seek and one `readinto` per array, and the `Bows` it
    builds checks those rows. A fault in the file, found on opening or in a
    row, raises the ValueError `read_bows` raises for it, naming the path.
    """

    def __init__(self, path: str | Path) -> None:
        import numpy as np

        from newstm.preprocess import (
            _BOWS_ARRAYS, _BOWS_FORMAT, _check_flat_integer, _check_sizes, _check_unique,
        )

        self._file = BlockFile(path, _BOWS_FORMAT, "newstm preprocess", lambda meta, _: meta)
        try:
            fields = {"doc_ids": list[str], "vocab_size": int}
            doc_ids, self.vocab_size = json_fields(self._file.header, fields)
            layouts = [self._file.layout(name) for name in _BOWS_ARRAYS]
            _check_unique(doc_ids)
            for name, (shape, dtype) in zip(_BOWS_ARRAYS, layouts):
                _check_flat_integer(name, shape, dtype)
            lengths = self._file.rows("doc_lengths").astype(np.int64, copy=False)
            (n_ids,), (n_counts,) = layouts[1][0], layouts[2][0]
            _check_sizes(len(doc_ids), lengths, n_ids, n_counts, self.vocab_size)
        except (LookupError, TypeError, ValueError) as exc:
            self._file.close()
            raise self._file.invalid(exc) from exc
        self.doc_ids: tuple[str, ...] = tuple(doc_ids)
        self._lengths = lengths
        self._ends = np.cumsum(lengths)
        self._row_of = {doc_id: row for row, doc_id in enumerate(self.doc_ids)}

    def select(self, doc_ids: Sequence[str]) -> Bows:
        """The documents named by `doc_ids`, in that order: `Bows.select` of
        the whole file, with the same errors."""
        import numpy as np

        from newstm.preprocess import _BOWS_ARRAYS, Bows, _check_unique

        try:
            rows = np.fromiter(map(self._row_of.__getitem__, doc_ids), np.int64, count=len(doc_ids))
        except KeyError as exc:
            raise ValueError(f"no bag of words for document {exc.args[0]!r}") from None
        _check_unique(doc_ids)  # the caller's fault, not the file's
        lengths = self._lengths[rows]
        # Each run of consecutive rows is one read of its entries per array:
        # runs start where a row is not the one before it plus 1.
        bounds = np.flatnonzero(np.diff(rows, prepend=-2, append=-2) != 1)
        firsts, lasts = rows[bounds[:-1]], rows[bounds[1:] - 1]
        starts = (self._ends[firsts] - self._lengths[firsts]).tolist()
        stops = self._ends[lasts].tolist()
        arrays = []
        for name in _BOWS_ARRAYS[1:]:  # word_ids, then counts
            out = np.empty(int(lengths.sum()), self._file.layout(name)[1])
            at = 0
            for start, stop in zip(starts, stops):
                self._file.rows(name, start, stop, out=out[at : at + stop - start])
                at += stop - start
            arrays.append(out)
        try:
            return Bows(tuple(doc_ids), lengths, *arrays, self.vocab_size)
        except ValueError as exc:
            raise self._file.invalid(exc) from exc

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> BowsFile:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
