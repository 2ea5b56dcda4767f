"""Equivalence suite for the encoded shard stores.

The spill and object stores keep each shard once as per-column
dictionary codes.  Whatever they answer from those codes must equal what
a store of live tables answers from scratch:

* ``store.column_encoding(name)`` equals ``encode_chunks`` over the
  stored shards — the same ``distinct`` list and an identical codes
  array;
* ``store.cell(i, r, j)`` equals ``store.get(i).column_ref(name)[r]``,
  and on the encoded stores it neither fills nor reorders the LRU;
* ``get()`` round-trips every value, awkward ones included.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dataset import Table
from repro.errors import TableError
from repro.kernels.runtime import HAVE_NUMPY
from repro.sharding import (
    InMemoryShardStore,
    LocalObjectClient,
    ObjectShardStore,
    ShardedTable,
    ShardOverlay,
    SpillToDiskShardStore,
)
from repro.sharding.remote import ObjectStoreError

if HAVE_NUMPY:
    import numpy as np

    from repro.kernels.encoder import encode_chunks

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="column encodings need numpy")

STORE_KINDS = ("memory", "spill", "object")

#: values a CSV round-trip would mangle or a naive codec would confuse
AWKWARD = [
    "",
    " ",
    "  padded  ",
    "has,comma",
    'has "quote"',
    '"',
    "multi\nline",
    "crlf\r\nline",
    "\r",
    "naïve·unicode",
    "日本語",
    "emoji 🙂",
    "0",
    "00",
    "10",
    "x",
]

COLUMNS = ["code", "label", "note"]


def make_store(kind: str):
    if kind == "memory":
        return InMemoryShardStore()
    if kind == "spill":
        return SpillToDiskShardStore(cache_shards=1)
    return ObjectShardStore(cache_shards=1)


def split_rows(rows, cuts):
    """Split ``rows`` at the sorted positions ``cuts`` (empty shards allowed)."""
    bounds = [0, *cuts, len(rows)]
    return [rows[start:stop] for start, stop in zip(bounds, bounds[1:])]


def fill(store, rows, cuts):
    for chunk in split_rows(rows, cuts):
        store.append(Table.from_rows(COLUMNS, chunk))
    return store


def random_rows(seed: int, n_rows: int):
    rng = random.Random(seed)
    return [[rng.choice(AWKWARD) for _ in COLUMNS] for _ in range(n_rows)]


def random_cuts(seed: int, n_rows: int, n_shards: int):
    rng = random.Random(seed)
    return sorted(rng.randint(0, n_rows) for _ in range(n_shards - 1))


def assert_store_equivalent(store, rows):
    # get() round-trips every value
    decoded = [row for index in range(store.n_shards) for row in store.get(index).iter_rows()]
    assert [list(row) for row in decoded] == rows
    # cell() equals the loaded shard's value, for every cell
    for index, n_rows in enumerate(store.shard_row_counts()):
        for local in range(n_rows):
            for j, name in enumerate(COLUMNS):
                expected = store.get(index).column_ref(name)[local]
                assert store.cell(index, local, j) == expected
    # column_encoding() equals encode_chunks over the stored shards
    if HAVE_NUMPY:
        for name in COLUMNS:
            expected = encode_chunks(
                store.get(index).column_ref(name) for index in range(store.n_shards)
            )
            actual = store.column_encoding(name)
            assert actual.distinct == expected.distinct
            assert actual.codes.dtype == expected.codes.dtype == np.int32
            assert np.array_equal(actual.codes, expected.codes)


@pytest.mark.parametrize("kind", STORE_KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_random_splits_are_equivalent(kind, seed):
    rows = random_rows(seed, 60)
    store = fill(make_store(kind), rows, random_cuts(seed, len(rows), 1 + seed * 2))
    try:
        assert_store_equivalent(store, rows)
    finally:
        store.close()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(STORE_KINDS),
    rows=st.lists(
        st.lists(st.one_of(st.sampled_from(AWKWARD), st.text(max_size=6)), min_size=3, max_size=3),
        min_size=1,
        max_size=30,
    ),
    data=st.data(),
)
def test_property_store_answers_equal_from_scratch(kind, rows, data):
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(rows)), max_size=5), label="cuts")
    )
    store = fill(make_store(kind), rows, cuts)
    try:
        assert_store_equivalent(store, rows)
    finally:
        store.close()


@pytest.mark.parametrize("kind", ("spill", "object"))
def test_cell_reads_leave_the_lru_alone(kind):
    rows = random_rows(7, 40)
    store = fill(make_store(kind), rows, [10, 20, 30])
    try:
        for index in range(store.n_shards):
            for local in range(store.shard_row_counts()[index]):
                store.cell(index, local, 2)
        assert list(store._loaded) == []  # nothing decoded
        store.get(1)
        store.get(3)  # evicts 1 from the one-slot LRU
        for index in (0, 1, 2, 3):
            store.cell(index, 0, 0)
        assert list(store._loaded) == [3]
    finally:
        store.close()


@pytest.mark.parametrize("kind", ("spill", "object"))
def test_decoded_cells_are_the_dictionary_strings(kind):
    # values repeated across shards decode to one string object, across
    # reloads too: the resident footprint is the distinct set
    rows = [["".join(["a"] * 20), "b", "c"] for _ in range(6)]
    assert rows[0][0] is not rows[1][0]  # equal but distinct objects
    store = fill(make_store(kind), rows, [3])
    try:
        first = store.get(0).column_ref("code")[0]
        store.get(1)
        again = store.get(0).column_ref("code")
        assert all(value is first for value in again)
        assert store.cell(1, 2, 0) is first
    finally:
        store.close()


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_cell_rejects_rows_out_of_range(kind):
    store = fill(make_store(kind), random_rows(1, 4), [])
    try:
        with pytest.raises(TableError, match="out of range"):
            store.cell(0, 4, 0)
        with pytest.raises(TableError, match="out of range"):
            store.cell(0, -1, 0)
    finally:
        store.close()


@needs_numpy
def test_failed_append_leaves_no_dictionary_entries(tmp_path):
    class FailingOnce(LocalObjectClient):
        fail = True

        def put(self, key, data):
            if self.fail:
                self.fail = False
                raise ObjectStoreError(f"outage writing {key!r}")
            super().put(key, data)

    store = ObjectShardStore(client=FailingOnce(tmp_path / "objects"), max_read_attempts=1)
    with pytest.raises(ObjectStoreError):
        store.append(Table.from_rows(COLUMNS, [["lost", "lost", "lost"]]))
    rows = random_rows(3, 12)
    fill(store, rows, [5])
    assert "lost" not in store.column_encoding("code").distinct
    assert_store_equivalent(store, rows)


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_sharded_table_cells_and_rows_match_the_materialized_table(kind):
    rows = random_rows(11, 30)
    sharded = ShardedTable(fill(make_store(kind), rows, [7, 7, 19]))
    table = Table.from_rows(COLUMNS, rows)
    for global_row in range(len(rows)):
        assert sharded.row(global_row) == table.row(global_row)
        for name in COLUMNS:
            assert sharded.cell(global_row, name) == table.cell(global_row, name)
    sharded.store.close()


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_overlay_reads_through_store_cells(kind):
    rows = random_rows(5, 24)
    base = ShardedTable(fill(make_store(kind), rows, [8, 16]))
    overlay = ShardOverlay(base)
    table = Table.from_rows(COLUMNS, rows)
    for row, value in ((3, "edited"), (17, "日本語"), (9, "")):
        overlay.set_cell(row, "label", value)
        table.set_cell(row, "label", value)
    overlay.delete_row(12)
    table.delete_row(12)
    for row in range(table.n_rows):
        assert overlay.row(row) == table.row(row)
        for name in COLUMNS:
            assert overlay.cell(row, name) == table.cell(row, name)
    if kind != "memory":
        assert list(base.store._loaded) == []  # every read was a code read
    sealed = overlay.as_sharded()
    assert sealed.to_table() == table
    base.store.close()
