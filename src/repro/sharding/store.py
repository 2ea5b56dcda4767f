"""Pluggable shard storage behind :class:`ShardedTable`.

A :class:`ShardStore` owns the per-shard :class:`~repro.dataset.table.Table`
objects of one sharded dataset.  The sharded engines never hold shard
lists themselves anymore — they address shards through the store, so the
*where* of shard bytes (process memory, local disk, a remote object
store) is swappable without touching discovery/detection.

The implementations:

* :class:`InMemoryShardStore` — live ``Table`` objects in a list.
  Mutation detection works through the shards' own version counters.
* :class:`EncodedShardStore` — the shared base of the stores that keep
  shard bytes outside process memory: each shard is stored once as
  per-column dictionary codes (:mod:`repro.sharding.codec`), decoded on
  access into a small LRU of recently used shards, so resident memory is
  bounded by the LRU size no matter how many shards the dataset has.
  Single cells and whole-column encodings are answered from the codes
  without decoding a shard.
* :class:`SpillToDiskShardStore` — encoded shards as files in a spill
  directory.  The object store
  (:class:`~repro.sharding.object_store.ObjectShardStore`) puts the same
  bytes behind an object client.

Shards are immutable by contract (see :class:`ShardedTable`), which is
what makes the spill round-trip safe.  Every store validates on
:meth:`~ShardStore.append` that all shards share one schema, so a
half-built store can never be sealed into an inconsistent
:class:`ShardedTable`.
"""

from __future__ import annotations

import tempfile
from abc import ABC, abstractmethod
from collections import OrderedDict
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.errors import TableError
from repro.kernels.encoder import ColumnEncoding, encode_chunks
from repro.kernels.runtime import HAVE_NUMPY, np
from repro.sharding.codec import SHARD_SUFFIX, ShardCodec


class ShardStore(ABC):
    """Ordered, append-only storage for the shards of one dataset."""

    def __init__(self) -> None:
        self._schema: Optional[Schema] = None

    # -- schema ----------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        if self._schema is None:
            raise TableError("the shard store is empty; append a shard first")
        return self._schema

    def column_names(self) -> List[str]:
        return self.schema.names()

    def _check_schema(self, shard: Table) -> None:
        """Shared append-time validation: all shards share one schema."""
        if self._schema is None:
            self._schema = shard.schema
            return
        if shard.column_names() != self._schema.names():
            raise TableError(
                f"shard {self.n_shards} has columns {shard.column_names()}, "
                f"expected {self._schema.names()} (all shards must share one schema)"
            )

    # -- the storage contract ----------------------------------------------------

    @property
    @abstractmethod
    def n_shards(self) -> int:
        """How many shards have been appended."""

    @abstractmethod
    def append(self, shard: Table) -> None:
        """Store one shard (validating its schema against the first)."""

    @abstractmethod
    def shard_row_counts(self) -> List[int]:
        """Per-shard row counts, in shard order (cheap — no shard loads)."""

    @abstractmethod
    def get(self, index: int) -> Table:
        """The shard at ``index`` (may load from backing storage)."""

    @abstractmethod
    def versions(self) -> Tuple[int, ...]:
        """Per-shard mutation counters — the staleness key for merged
        artifacts built over this store."""

    def column_encoding(self, name: str) -> ColumnEncoding:
        """One logical column factorized across all shards (numpy only).

        Equal to :func:`~repro.kernels.encoder.encode_chunks` over the
        shards in order — which is what this default computes."""
        return encode_chunks(
            self.get(index).column_ref(name) for index in range(self.n_shards)
        )

    def cell(self, index: int, local_row: int, column_index: int) -> str:
        """One cell of shard ``index`` (default: through :meth:`get`)."""
        return self.get(index).cell(local_row, self.schema[column_index].name)

    def close(self) -> None:
        """Release backing resources (a no-op for in-memory stores)."""

    def __len__(self) -> int:
        return self.n_shards


class InMemoryShardStore(ShardStore):
    """Shards held as live :class:`Table` objects — the default store."""

    def __init__(self, shards: Optional[List[Table]] = None):
        super().__init__()
        self._shards: List[Table] = []
        for shard in shards or ():
            self.append(shard)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def append(self, shard: Table) -> None:
        self._check_schema(shard)
        self._shards.append(shard)

    def shard_row_counts(self) -> List[int]:
        return [shard.n_rows for shard in self._shards]

    def get(self, index: int) -> Table:
        return self._shards[index]

    def versions(self) -> Tuple[int, ...]:
        # live counters: a shard mutated behind our back changes the
        # tuple, invalidating every merged artifact built over it
        return tuple(shard.version for shard in self._shards)


class EncodedShardStore(ShardStore):
    """Shards stored once as dictionary codes in some backing medium.

    Subclasses supply the medium: :meth:`_put` writes one shard's bytes,
    :meth:`_fetch` reads them back whole, :meth:`_label` names a shard's
    file or object in errors, and :meth:`_read_codes` may be overridden
    with a ranged read.  Everything else — the shared
    :class:`~repro.sharding.codec.ShardCodec` dictionaries, the LRU of
    decoded shards, single-cell and whole-column reads — lives here.

    Parameters
    ----------
    cache_shards:
        How many recently accessed shards stay decoded in memory.  ``1``
        (the default in both stores) is enough for the sharded engines,
        which walk the shards sequentially.
    """

    def __init__(self, cache_shards: int = 1):
        super().__init__()
        if cache_shards < 1:
            raise TableError(f"cache_shards must be >= 1, got {cache_shards}")
        self._cache_shards = cache_shards
        self._codec: Optional[ShardCodec] = None
        self._row_counts: List[int] = []
        #: per-shard version-at-append (shards are frozen once stored)
        self._versions: List[int] = []
        self._loaded: "OrderedDict[int, Table]" = OrderedDict()

    # -- the backing medium ----------------------------------------------------

    @abstractmethod
    def _put(self, index: int, data: bytes) -> None:
        """Store shard ``index``'s bytes; raise (storing nothing the store
        will read) on failure."""

    @abstractmethod
    def _fetch(self, index: int) -> bytes:
        """Shard ``index``'s whole payload, as stored."""

    @abstractmethod
    def _label(self, index: int) -> str:
        """How errors name shard ``index``'s file or object."""

    def _read_codes(self, index: int, column_index: int, first_row: int, count: int) -> bytes:
        """``count`` codes of one column of shard ``index``, from
        ``first_row`` on, after the header and size checks (default: cut
        from the whole payload)."""
        return self._codec.slice_codes(
            self._fetch(index),
            self._row_counts[index],
            column_index,
            first_row,
            count,
            self._label(index),
        )

    # -- the storage contract ----------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._row_counts)

    def append(self, shard: Table) -> None:
        self._check_schema(shard)
        if self._codec is None:
            self._codec = ShardCodec(len(self._schema))
        mark = self._codec.mark()
        try:
            self._put(self.n_shards, self._codec.encode(shard))
        except BaseException:
            self._codec.rollback(mark)
            raise
        self._row_counts.append(shard.n_rows)
        self._versions.append(shard.version)

    def shard_row_counts(self) -> List[int]:
        return list(self._row_counts)

    def get(self, index: int) -> Table:
        cached = self._loaded.get(index)
        if cached is not None:
            self._loaded.move_to_end(index)
            return cached
        n_rows = self._row_counts[index]
        shard = self._codec.decode(
            self._fetch(index), self.schema, n_rows, self._label(index)
        )
        self._loaded[index] = shard
        while len(self._loaded) > self._cache_shards:
            self._loaded.popitem(last=False)
        return shard

    def cell(self, index: int, local_row: int, column_index: int) -> str:
        """One cell, read as one code — no shard is decoded and the LRU is
        neither filled nor reordered."""
        resident = self._loaded.get(index)
        if resident is not None:
            return resident.cell(local_row, self.schema[column_index].name)
        n_rows = self._row_counts[index]
        if not 0 <= local_row < n_rows:
            raise TableError(f"row index {local_row} out of range [0, {n_rows})")
        raw = self._read_codes(index, column_index, local_row, 1)
        return self._codec.values(column_index, raw, self._label(index))[0]

    def column_encoding(self, name: str) -> ColumnEncoding:
        """The store's own dictionary plus the shards' concatenated code
        blocks — exactly :func:`~repro.kernels.encoder.encode_chunks`
        over the shards, since they were appended in row order."""
        if not HAVE_NUMPY:
            raise RuntimeError("column_encoding requires numpy; gate on kernels_enabled()")
        column_index = self.schema.index_of(name)
        blocks = [
            self._codec.codes_array(
                column_index,
                self._read_codes(index, column_index, 0, n_rows),
                self._label(index),
            )
            for index, n_rows in enumerate(self._row_counts)
        ]
        codes = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int32)
        return ColumnEncoding(
            list(self._codec.dictionary(column_index)),
            codes.astype(np.int32, copy=False),
        )

    def versions(self) -> Tuple[int, ...]:
        # stored shards are frozen at append time; the recorded counters
        # are the stable staleness key
        return tuple(self._versions)

    def close(self) -> None:
        self._loaded.clear()
        if self._codec is not None:
            self._codec.clear()


class SpillToDiskShardStore(EncodedShardStore):
    """Encoded shards as files in a spill directory; resident memory
    bounded by a small LRU of decoded shards.

    Parameters
    ----------
    directory:
        Where the shard files go.  ``None`` creates a private temporary
        directory that is removed on :meth:`close` (or interpreter
        exit).
    cache_shards:
        How many recently accessed shards stay decoded in memory.
    """

    def __init__(self, directory: Union[str, Path, None] = None, cache_shards: int = 1):
        super().__init__(cache_shards)
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if directory is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-shards-")
            directory = self._tmpdir.name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, index: int) -> Path:
        return self.directory / f"shard_{index:06d}{SHARD_SUFFIX}"

    def _label(self, index: int) -> str:
        return f"spill file {self._path(index).name}"

    def _put(self, index: int, data: bytes) -> None:
        self._path(index).write_bytes(data)

    def _fetch(self, index: int) -> bytes:
        return self._path(index).read_bytes()

    def _read_codes(self, index: int, column_index: int, first_row: int, count: int) -> bytes:
        with self._path(index).open("rb") as handle:
            return self._codec.read_codes(
                handle,
                self._row_counts[index],
                column_index,
                first_row,
                count,
                self._label(index),
            )

    def close(self) -> None:
        super().close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


#: CLI/session-facing names for the shipped store backends
STORE_KINDS = ("memory", "spill", "object")


def make_shard_store(
    kind: str,
    directory: Union[str, Path, None] = None,
    object_url: Optional[str] = None,
    retry_policy=None,
    prefetch_depth: int = 0,
) -> ShardStore:
    """Build a shard store from its CLI/session-facing name.

    ``directory`` is the spill/object root; ``None`` means a private
    temporary directory removed on ``close()``.  For the ``object``
    kind, ``object_url`` switches the backing client from the local
    filesystem to the remote
    :class:`~repro.sharding.remote.HttpObjectClient` at that base URL —
    the store then owns that remote namespace, so ``close()`` deletes
    its uploaded objects instead of leaking them on the server.
    ``retry_policy`` overrides the object store's default
    :class:`~repro.sharding.remote.RetryPolicy`, and ``prefetch_depth``
    (object kind only) enables its background fetch pipeline.
    """
    if kind == "memory":
        return InMemoryShardStore()
    if kind == "spill":
        return SpillToDiskShardStore(directory)
    if kind == "object":
        # imported lazily: object_store builds on this module
        from repro.sharding.object_store import ObjectShardStore
        from repro.sharding.remote import HttpObjectClient

        if object_url:
            return ObjectShardStore(
                client=HttpObjectClient(object_url),
                owns_client=True,
                retry_policy=retry_policy,
                prefetch_depth=prefetch_depth,
            )
        return ObjectShardStore(
            root=directory, retry_policy=retry_policy, prefetch_depth=prefetch_depth
        )
    raise TableError(
        f"unknown shard store kind {kind!r} (expected one of {', '.join(STORE_KINDS)})"
    )
