"""Mergeable per-shard sufficient statistics.

The sharded engines never ship whole shards between pipeline stages;
they extract small, *mergeable* statistics per shard and reduce them:

* **pair groups** — for one ``(LHS, RHS)`` attribute pair, the nested map
  ``LHS value → RHS value → [global row ids]``.  This is the sufficient
  statistic of batch detection: constant rules need the rows per
  (matching LHS value, observed RHS value), and variable rules derive
  their cross-shard ``≡_Q`` blocks by projecting each distinct LHS value
  once.  Merging is nested dict union with list concatenation; because
  shards are reduced in row order, each ``(LHS value, RHS value)`` row
  list stays ascending.

* **shard tokenizations** — one shard's
  :class:`~repro.discovery.inverted_index.ColumnTokenization` rows.
  Merging is plain concatenation: global tuple ids are shard offset +
  local row, which is exactly the position the concatenated list puts
  them at, so the merged tokenization is byte-for-byte the monolithic
  single-pass extraction.

Both statistics are built from dicts of strings plus compact
``array('i')`` row-id sequences (see :mod:`repro.dataset.rowids`), so
they stay small enough to hold for a whole out-of-core run without
approaching the materialized table's footprint.

Both statistics are also **invertible**: because one shard's global row
ids form a contiguous range, a shard's contribution occupies a
contiguous slice of every merged row list (and a contiguous row range of
the merged tokenization).  :func:`unmerge_pair_groups` /
:func:`merge_into_pair_groups` and :func:`splice_tokenization` exploit
that to retract one shard's statistic and insert a replacement —
``merged = base − old_delta + new_delta`` — which is what lets the rule
maintainer (:mod:`repro.discovery.maintenance`) treat an edit batch from
the shard overlay as a *delta shard* instead of re-merging everything.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Sequence, Tuple

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.dataset.rowids import RowIds, row_ids
from repro.detection.index import narrow_candidates_by_prefix
from repro.discovery.inverted_index import ColumnTokenization
from repro.kernels.match import batch_matching_values
from repro.kernels.runtime import kernels_enabled
from repro.patterns.pattern import Pattern
from repro.perf.memo import MatchMemo
from repro.pfd.tableau import Wildcard

#: LHS value → RHS value → ascending global row ids (``array('i')``).
PairGroups = Dict[str, Dict[str, RowIds]]


def extract_pair_groups(
    lhs_values: Sequence[str],
    rhs_values: Sequence[str],
    offset: int,
) -> PairGroups:
    """One shard's pair groups for one attribute pair, rows globalized by
    ``offset`` (one pass over the shard)."""
    groups: PairGroups = {}
    for local_row, (lhs_value, rhs_value) in enumerate(zip(lhs_values, rhs_values)):
        by_rhs = groups.get(lhs_value)
        if by_rhs is None:
            by_rhs = groups[lhs_value] = {}
        rows = by_rhs.get(rhs_value)
        if rows is None:
            by_rhs[rhs_value] = row_ids((offset + local_row,))
        else:
            rows.append(offset + local_row)
    return groups


def merge_pair_groups(shard_groups: Sequence[PairGroups]) -> "MergedPairGroups":
    """Reduce per-shard pair groups (in shard order) into one merged
    statistic.  Row lists concatenate ascending because every shard's
    global ids exceed the previous shard's."""
    merged: PairGroups = {}
    for groups in shard_groups:
        for lhs_value, by_rhs in groups.items():
            merged_rhs = merged.get(lhs_value)
            if merged_rhs is None:
                merged[lhs_value] = {
                    rhs_value: row_ids(rows) for rhs_value, rows in by_rhs.items()
                }
                continue
            for rhs_value, rows in by_rhs.items():
                existing = merged_rhs.get(rhs_value)
                if existing is None:
                    merged_rhs[rhs_value] = row_ids(rows)
                else:
                    existing.extend(rows)
    return MergedPairGroups(merged)


def unmerge_pair_groups(
    merged: "MergedPairGroups", shard_groups: PairGroups
) -> None:
    """Retract one shard's contribution from a merged statistic, in place.

    ``shard_groups`` must be the pair groups *as extracted from that
    shard* (same offset, same contents) — exactly what
    :func:`extract_pair_groups` produced when the shard was merged.
    Because a shard's global row ids are a contiguous range, its rows
    occupy a contiguous slice of each merged row list; the slice is cut
    out with two bisects, keeping the remaining lists ascending.  Groups
    emptied by the retraction are pruned (and ``sorted_values`` shrinks
    with them), so the result is indistinguishable from a merge that
    never saw the shard.
    """
    groups = merged.groups
    values_changed = False
    for lhs_value, by_rhs in shard_groups.items():
        merged_rhs = groups[lhs_value]
        for rhs_value, rows in by_rhs.items():
            existing = merged_rhs[rhs_value]
            lo = bisect_left(existing, rows[0])
            hi = bisect_right(existing, rows[-1], lo=lo)
            del existing[lo:hi]
            if not existing:
                del merged_rhs[rhs_value]
        if not merged_rhs:
            del groups[lhs_value]
            values_changed = True
    if values_changed:
        merged.sorted_values = sorted(groups)


def merge_into_pair_groups(
    merged: "MergedPairGroups", shard_groups: PairGroups
) -> None:
    """Insert one shard's contribution into a merged statistic, in place.

    The inverse of :func:`unmerge_pair_groups`: each row list lands as a
    contiguous slice at its bisected position (the shard's global-id
    range is disjoint from every other shard's), so row lists stay
    ascending and ``unmerge → merge_into`` round-trips to an equal
    statistic.  New distinct LHS values re-sort ``sorted_values``.
    """
    groups = merged.groups
    values_changed = False
    for lhs_value, by_rhs in shard_groups.items():
        merged_rhs = groups.get(lhs_value)
        if merged_rhs is None:
            groups[lhs_value] = {
                rhs_value: row_ids(rows) for rhs_value, rows in by_rhs.items()
            }
            values_changed = True
            continue
        for rhs_value, rows in by_rhs.items():
            existing = merged_rhs.get(rhs_value)
            if existing is None:
                merged_rhs[rhs_value] = row_ids(rows)
            else:
                position = bisect_left(existing, rows[0])
                existing[position:position] = row_ids(rows)
    if values_changed:
        merged.sorted_values = sorted(groups)


def splice_tokenization(
    merged: ColumnTokenization,
    start_row: int,
    old_rows: int,
    new_row_tokens: Sequence[Tuple[Tuple[str, int, str], ...]],
) -> ColumnTokenization:
    """Replace one shard's row range of a merged tokenization, in place.

    The tokenization analogue of unmerge + merge_into: rows
    ``[start_row, start_row + old_rows)`` — one shard's contribution,
    which concatenation placed exactly there — are retracted and the
    replacement shard's rows are spliced in.  Rows are tokenized
    independently, so the result equals re-extracting the whole column
    with the new shard contents.  Returns ``merged`` for chaining.
    """
    merged.row_tokens[start_row : start_row + old_rows] = list(new_row_tokens)
    return merged


class MergedPairGroups:
    """The cross-shard pair groups of one attribute pair, plus the sorted
    distinct-LHS-value array that answers pattern lookups."""

    __slots__ = ("groups", "sorted_values", "last_candidates_tested")

    def __init__(self, groups: PairGroups):
        self.groups = groups
        self.sorted_values: List[str] = sorted(groups)
        #: distinct values regex-tested by the last lookup (cost statistic)
        self.last_candidates_tested = 0

    @property
    def n_distinct(self) -> int:
        return len(self.sorted_values)

    def matching_values(
        self,
        lhs_cell,
        memo: MatchMemo,
    ) -> List[str]:
        """Distinct LHS values satisfying a rule's LHS cell.

        Patterns are narrowed by literal prefix and memo-tested once per
        distinct value (the same verdict store the monolithic index
        uses); a plain-string cell is a dictionary hit; a wildcard cell
        matches everything (as ``cell_matches`` defines).  When the
        vectorized kernels are enabled, plain patterns run through the
        batch matcher (identical verdicts, same memo tables).
        """
        if isinstance(lhs_cell, Pattern) and kernels_enabled():
            candidates = narrow_candidates_by_prefix(self.sorted_values, lhs_cell)
            self.last_candidates_tested = len(candidates)
            return batch_matching_values(lhs_cell, candidates, memo=memo)
        if isinstance(lhs_cell, (Pattern, ConstrainedPattern)):
            candidates = narrow_candidates_by_prefix(self.sorted_values, lhs_cell)
            self.last_candidates_tested = len(candidates)
            matches = memo.matcher(lhs_cell)
            return [value for value in candidates if matches(value)]
        if isinstance(lhs_cell, Wildcard):
            self.last_candidates_tested = 0
            return list(self.sorted_values)
        self.last_candidates_tested = 1
        return [lhs_cell] if lhs_cell in self.groups else []


def merge_tokenizations(
    mode: str,
    ngram_size: int,
    shard_row_tokens: Sequence[Sequence[Tuple[Tuple[str, int, str], ...]]],
) -> ColumnTokenization:
    """Concatenate per-shard tokenization rows into the monolithic
    single-pass tokenization of the whole column."""
    row_tokens: List[Tuple[Tuple[str, int, str], ...]] = []
    for shard_rows in shard_row_tokens:
        row_tokens.extend(shard_rows)
    return ColumnTokenization(mode, ngram_size, row_tokens)


# -- tree reduction ----------------------------------------------------------------
#
# The left folds above reduce one shard at a time on the driver — fine
# for a handful of shards, serial coordination for hundreds.  The tree
# variants below reduce *adjacent* partials pairwise, level by level:
# adjacent partials cover adjacent contiguous global-row ranges, so
# every pairwise merge concatenates a strictly lower id range with a
# strictly higher one and row lists stay ascending at every level.
# Merging adjacent pairs is therefore order-insensitive with respect to
# the fold: the result is value-equal to the left fold over the same
# shards (proven by the randomized equivalence tests in
# tests/sharding/test_tree_merge.py).
#
# Level-0 inputs are never mutated — they may be cached per-shard
# artifacts (``TABLE_ARTIFACTS``) — so the first merge touching a
# partial copies it; intermediate results are owned by the reduction and
# merged in place.


def _merge_adjacent_pair_groups(payload) -> PairGroups:
    """Merge two adjacent pair-group partials.  ``owns_left`` says whether ``left`` is an
    intermediate the reduction owns (mutable) or a level-0 input (copy)."""
    left, right, owns_left = payload
    if owns_left:
        merged = left
    else:
        merged = {
            lhs_value: {rhs_value: row_ids(rows) for rhs_value, rows in by_rhs.items()}
            for lhs_value, by_rhs in left.items()
        }
    for lhs_value, by_rhs in right.items():
        merged_rhs = merged.get(lhs_value)
        if merged_rhs is None:
            merged[lhs_value] = {
                rhs_value: row_ids(rows) for rhs_value, rows in by_rhs.items()
            }
            continue
        for rhs_value, rows in by_rhs.items():
            existing = merged_rhs.get(rhs_value)
            if existing is None:
                merged_rhs[rhs_value] = row_ids(rows)
            else:
                existing.extend(rows)
    return merged


def _merge_adjacent_token_rows(payload) -> List[Tuple[Tuple[str, int, str], ...]]:
    """Concatenate two adjacent tokenization partials (tree analogue of
    the :func:`merge_tokenizations` fold step)."""
    left, right, owns_left = payload
    merged = left if owns_left else list(left)
    merged.extend(right)
    return merged


def _tree_reduce(partials: List, merge_adjacent) -> Tuple[object, bool]:
    """Reduce partials pairwise until one remains.  Returns ``(result,
    owned)`` — ``owned`` is ``False`` only for a single-partial input,
    where the result still aliases the caller's level-0 data."""
    owned = [False] * len(partials)
    while len(partials) > 1:
        payloads = [
            (partials[i], partials[i + 1], owned[i])
            for i in range(0, len(partials) - 1, 2)
        ]
        level = [merge_adjacent(payload) for payload in payloads]
        next_owned = [True] * len(level)
        if len(partials) % 2:
            level.append(partials[-1])
            next_owned.append(owned[-1])
        partials, owned = level, next_owned
    return partials[0], owned[0]


def tree_merge_pair_groups(shard_groups: Sequence[PairGroups]) -> "MergedPairGroups":
    """Tree-reduce per-shard pair groups (in shard order) into one merged
    statistic, value-equal to :func:`merge_pair_groups`.  The level-0
    partials are left untouched (they may be cached)."""
    partials = list(shard_groups)
    if not partials:
        return MergedPairGroups({})
    result, owned = _tree_reduce(partials, _merge_adjacent_pair_groups)
    if not owned:
        result = {
            lhs_value: {rhs_value: row_ids(rows) for rhs_value, rows in by_rhs.items()}
            for lhs_value, by_rhs in result.items()
        }
    return MergedPairGroups(result)


def tree_merge_tokenizations(
    mode: str,
    ngram_size: int,
    shard_row_tokens: Sequence[Sequence[Tuple[Tuple[str, int, str], ...]]],
) -> ColumnTokenization:
    """Tree-reduce per-shard tokenization rows, value-equal to
    :func:`merge_tokenizations` (concatenation of adjacent ranges is
    associative; shard order is preserved at every level)."""
    partials = list(shard_row_tokens)
    if not partials:
        return ColumnTokenization(mode, ngram_size, [])
    result, owned = _tree_reduce(partials, _merge_adjacent_token_rows)
    rows = result if owned else list(result)
    return ColumnTokenization(mode, ngram_size, rows)
