"""The benchmark's workloads: what each cold session uploads and edits.

Why each exists (see README.md for the layer map):

* ``spill_session`` -- the cold spill path.  The upload lands in a
  spill-to-disk store in 16 shards, far beyond its 1-shard resident
  LRU, so shard re-reads (CSV re-parse + interning), ``encode_chunks``,
  tree merges, sharded detection, incremental seeding and rule
  maintenance all do real work.  Two edit batches, in two columns;
  each batch's rows are spread over all 16 shards (``gen.edit_script``),
  so a recheck re-reads as many shards whatever the seed.
* ``mono_phone`` -- the monolithic in-memory route (``read_csv`` +
  ``load_table``): no shard store and no sharded engine, so store and
  sharding changes should not move it.  Its recheck is a full
  re-discovery.  Long structured phone tokens load profiling,
  tokenization, matching and constant-PFD mining.

There is no edit-heavy workload of its own (six batches, one per
column, over an in-memory shard store): its edits change which rules
survive each recheck, so the violations every later edit rebuilds --
and with them the edit and session times -- differ by seed by up to
40%, past any bound.  ``spill_session``'s two batches exercise the same
layers (overlay writes, incremental detection, rule maintenance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    #: generator name understood by ``gen.build_relation``
    relation: str
    n_rows: int
    #: shard store kind ``upload_csv`` streams the CSV into; ``None``
    #: loads it monolithically through ``read_csv`` + ``load_table``
    store: Optional[str]
    shard_rows: int
    #: one edit batch per entry, each editing that column
    edit_columns: Tuple[str, ...]
    edits_per_batch: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="spill_session",
            relation="geo6",
            n_rows=64_000,
            store="spill",
            shard_rows=4_000,
            edit_columns=("grade", "department"),
            edits_per_batch=20,
        ),
        Workload(
            name="mono_phone",
            relation="phone_state",
            n_rows=32_000,
            store=None,
            shard_rows=0,
            edit_columns=("state",),
            edits_per_batch=40,
        ),
    )
}
