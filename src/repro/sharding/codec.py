"""The shard byte format shared by the spill and object stores.

A store that keeps shards outside process memory encodes every column
against a per-column, append-only **dictionary** of distinct values in
first-appearance order, shared by all of the store's shards.  A shard's
bytes are then just its codes:

* a header — :data:`MAGIC`, :data:`FORMAT_VERSION`, ``n_rows`` and
  ``width`` (little-endian ``<4sIQQ``, :data:`HEADER_SIZE` bytes);
* ``width`` blocks of ``n_rows`` little-endian int32 codes, column-major,
  so one column (or one cell) is a contiguous slice at a computable
  offset.

Codes are built and read with the stdlib :mod:`array` module, so the
numpy-less path needs nothing else; with numpy the code blocks are read
zero-copy via ``np.frombuffer(..., dtype="<i4")``.

Because shards are appended in row order, the dictionaries are exactly
the ``distinct`` lists :func:`~repro.kernels.encoder.encode_chunks`
computes over the stored shards, and the concatenated code blocks are its
``codes`` — a store answers a column encoding without re-factorizing.
Decoding maps codes back through the dictionary, so a decoded cell *is*
the dictionary's string object: resident strings across shard reloads
are the distinct set, with no interning pass.

CSV is an ingest/export format only; nothing here parses or writes it.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from typing import BinaryIO, Dict, List, Tuple

from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.errors import TableError
from repro.kernels.runtime import np

MAGIC = b"RPSC"
FORMAT_VERSION = 1
#: file suffix / object-key suffix of one encoded shard
SHARD_SUFFIX = ".codes"

_HEADER = struct.Struct("<4sIQQ")
HEADER_SIZE = _HEADER.size
CODE_SIZE = 4
#: the array typecode holding a C int32 on this platform
_TYPECODE = next(code for code in "il" if array(code).itemsize == CODE_SIZE)
_BIG_ENDIAN = sys.byteorder == "big"


class ShardCodec:
    """One store's per-column dictionaries plus the shard byte format.

    ``label`` arguments name the file or object being read (e.g.
    ``"spill file shard_000003.codes"``); every validation failure raises
    :class:`~repro.errors.TableError` carrying it.
    """

    def __init__(self, width: int):
        self.width = width
        #: per column: value → code
        self._index: List[Dict[str, int]] = [{} for _ in range(width)]
        #: per column: code → value, in first-appearance order
        self._distinct: List[List[str]] = [[] for _ in range(width)]

    def dictionary(self, column_index: int) -> List[str]:
        """The live distinct-value list of one column (do not mutate)."""
        return self._distinct[column_index]

    # -- encoding ----------------------------------------------------------------

    def mark(self) -> Tuple[int, ...]:
        """Dictionary sizes now, for :meth:`rollback`."""
        return tuple(len(distinct) for distinct in self._distinct)

    def rollback(self, mark: Tuple[int, ...]) -> None:
        """Forget the values added since ``mark`` (a failed append must
        not leave dictionary entries no stored shard holds)."""
        for index, distinct, size in zip(self._index, self._distinct, mark):
            for value in distinct[size:]:
                del index[value]
            del distinct[size:]

    def encode(self, shard: Table) -> bytes:
        """Encode one shard, extending the dictionaries with its new values."""
        parts = [_HEADER.pack(MAGIC, FORMAT_VERSION, shard.n_rows, self.width)]
        for index, distinct, name in zip(self._index, self._distinct, shard.column_names()):
            values = shard.column_ref(name)
            # dict.fromkeys dedups in first-appearance order at C speed;
            # only the shard's distinct values reach the Python loop
            for value in dict.fromkeys(values):
                if value not in index:
                    index[value] = len(distinct)
                    distinct.append(value)
            codes = array(_TYPECODE, map(index.__getitem__, values))
            if _BIG_ENDIAN:
                codes.byteswap()
            parts.append(codes.tobytes())
        return b"".join(parts)

    # -- validation ----------------------------------------------------------------

    def _check_header(self, header: bytes, n_rows: int, label: str) -> None:
        """Validate a shard header against the store's own record of it."""
        if len(header) < HEADER_SIZE:
            raise TableError(
                f"{label} holds {len(header)} bytes, shorter than the "
                f"{HEADER_SIZE}-byte shard header (truncated?)"
            )
        magic, version, stored_rows, stored_width = _HEADER.unpack_from(header)
        if magic != MAGIC:
            raise TableError(f"{label} is not an encoded shard (bad magic {magic!r})")
        if version != FORMAT_VERSION:
            raise TableError(
                f"{label} has shard format version {version}, expected {FORMAT_VERSION}"
            )
        if stored_width != self.width:
            raise TableError(
                f"{label} has width {stored_width}, expected {self.width} (corrupted?)"
            )
        if stored_rows != n_rows:
            raise TableError(
                f"{label} header records {stored_rows} rows, expected {n_rows} (corrupted?)"
            )

    def _check_size(self, size: int, n_rows: int, label: str) -> None:
        expected = HEADER_SIZE + CODE_SIZE * n_rows * self.width
        if size != expected:
            raise TableError(
                f"{label} holds {size} bytes, expected {expected} "
                f"(truncated or oversized; corrupted?)"
            )

    def _check_payload(self, data: bytes, n_rows: int, label: str) -> None:
        """Header and byte-size checks of one whole shard payload."""
        self._check_header(data[:HEADER_SIZE], n_rows, label)
        self._check_size(len(data), n_rows, label)

    # -- ranged reads ----------------------------------------------------------------

    @staticmethod
    def _span(n_rows: int, column_index: int, first_row: int, count: int) -> Tuple[int, int]:
        """Byte range of ``count`` codes of one column from ``first_row`` on."""
        start = HEADER_SIZE + CODE_SIZE * (column_index * n_rows + first_row)
        return start, start + CODE_SIZE * count

    def slice_codes(
        self, data: bytes, n_rows: int, column_index: int, first_row: int, count: int, label: str
    ) -> bytes:
        """``count`` codes of one column out of a whole, checked payload."""
        self._check_payload(data, n_rows, label)
        start, stop = self._span(n_rows, column_index, first_row, count)
        return data[start:stop]

    def read_codes(
        self, handle: BinaryIO, n_rows: int, column_index: int, first_row: int, count: int, label: str
    ) -> bytes:
        """``count`` codes of one column read from an open shard file —
        the header and the file size are checked, the rest is skipped."""
        self._check_header(handle.read(HEADER_SIZE), n_rows, label)
        self._check_size(os.fstat(handle.fileno()).st_size, n_rows, label)
        start, stop = self._span(n_rows, column_index, first_row, count)
        handle.seek(start)
        return handle.read(stop - start)

    def _check_range(self, column_index: int, low: int, high: int, label: str) -> None:
        """Every code of a block (``low``..``high``) indexes the dictionary."""
        size = len(self._distinct[column_index])
        if low < 0 or high >= size:
            raise TableError(
                f"{label} column {column_index} holds code {low if low < 0 else high} "
                f"outside its {size}-value dictionary (corrupted?)"
            )

    # -- decoding ----------------------------------------------------------------

    def values(self, column_index: int, raw: bytes, label: str) -> List[str]:
        """Decode a block of one column's codes into its values."""
        codes = array(_TYPECODE)
        codes.frombytes(raw)
        if _BIG_ENDIAN:
            codes.byteswap()
        if codes:
            self._check_range(column_index, min(codes), max(codes), label)
        return list(map(self._distinct[column_index].__getitem__, codes))

    def decode(self, data: bytes, schema: Schema, n_rows: int, label: str) -> Table:
        """A whole shard payload back into a :class:`Table` whose cells
        are the dictionaries' own strings."""
        self._check_payload(data, n_rows, label)
        view = memoryview(data)
        columns = []
        for j in range(self.width):
            start, stop = self._span(n_rows, j, 0, n_rows)
            columns.append(self.values(j, view[start:stop], label))
        return Table._trusted(schema, columns)

    def codes_array(self, column_index: int, raw: bytes, label: str):
        """A block of one column's codes as a zero-copy int32 numpy view
        (range-checked); needs numpy."""
        codes = np.frombuffer(raw, dtype="<i4")
        if len(codes):
            self._check_range(column_index, int(codes.min()), int(codes.max()), label)
        return codes

    def clear(self) -> None:
        for index, distinct in zip(self._index, self._distinct):
            index.clear()
            distinct.clear()
