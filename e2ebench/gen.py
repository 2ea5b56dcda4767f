"""Seeded inputs for the cold-session benchmark.

``generate(workload, seed, out_dir)`` is the one entry point: it writes
the workload's relation to ``data.csv`` and, next to it,
``inputs.json`` holding the edit script, the generator's ground-truth
error cells, and the reference outputs of a from-scratch monolithic run
(rules and canonical violations at every checkpoint of the session).
The same seed always yields byte-identical files.

The reference is computed here, before any timed process starts,
because the edit script is fixed in advance: the session's checkpoints
are "after discovery" and "after each recheck", and the data at each
of them is the CSV with the edit batches applied so far.

Run as a script to generate into a directory::

    python3 e2ebench/gen.py --workload spill_session --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import paths  # noqa: E402  (puts the repo's src/ on sys.path)

from repro.datagen.corruption import GeneratedDataset  # noqa: E402
from repro.datagen.employees import DEPARTMENTS, GRADES, generate_employee_ids  # noqa: E402
from repro.datagen.geo import generate_zip_city_state  # noqa: E402
from repro.datagen.phones import generate_phone_state  # noqa: E402
from repro.dataset.csvio import read_csv, write_csv  # noqa: E402
from repro.dataset.table import Table  # noqa: E402
from repro.detection.detector import ErrorDetector  # noqa: E402
from repro.discovery.config import DiscoveryConfig  # noqa: E402
from repro.discovery.discoverer import PfdDiscoverer  # noqa: E402

from check import checkpoint, rule_key  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: ``generate_employee_ids`` draws ids from 6 departments x 5 grades x
#: 900 serials and rejects repeats, so past this many rows its loop
#: never ends.
EMPLOYEE_ID_CAPACITY = len(DEPARTMENTS) * len(GRADES) * 900

GEO6_COLUMNS = ["zip", "city", "state", "region", "department", "grade"]


def geo6(n_rows: int, seed: int) -> GeneratedDataset:
    """The six-column widened geo relation of the rule-maintenance bench
    (``run_bench._bench_rule_maintenance_edit_loop``), with its fixed
    seed 23 replaced by ``seed``: the geo generator plus a
    state-determined region and a random department and grade."""
    geo = generate_zip_city_state(n_rows=n_rows, seed=seed)
    table = geo.table
    states = list(table.column_ref("state"))
    regions = {s: f"Region-{i % 4}" for i, s in enumerate(sorted(set(states)))}
    rng = random.Random(seed)
    departments = ["Finance", "Engineering", "HR", "Marketing", "Sales", "Research"]
    grades = ["Junior", "Associate", "Senior", "Principal", "Director"]
    wide = Table(
        GEO6_COLUMNS,
        [
            list(table.column_ref("zip")),
            list(table.column_ref("city")),
            states,
            [regions[s] for s in states],
            [rng.choice(departments) for _ in range(n_rows)],
            [rng.choice(grades) for _ in range(n_rows)],
        ],
    )
    return GeneratedDataset(
        name="geo6", table=wide, clean_table=geo.clean_table, error_cells=geo.error_cells
    )


def build_relation(kind: str, n_rows: int, seed: int) -> GeneratedDataset:
    """One seeded relation by generator name."""
    if kind == "geo6":
        return geo6(n_rows, seed)
    if kind == "phone_state":
        return generate_phone_state(n_rows=n_rows, seed=seed)
    if kind == "employee_ids":
        if n_rows > EMPLOYEE_ID_CAPACITY:
            raise ValueError(
                f"employee_ids has only {EMPLOYEE_ID_CAPACITY} distinct ids; "
                f"{n_rows} rows would never finish generating"
            )
        return generate_employee_ids(n_rows=n_rows, seed=seed)
    raise ValueError(f"unknown relation kind {kind!r}")


def edit_script(
    table: Table, workload: Workload, seed: int
) -> List[List[Tuple[int, str, str]]]:
    """The workload's edit batches: ``(row, column, value)`` triples
    whose value is donated by another row of the same column and
    differs from the cell's own.

    A recheck's cost grows with the shards a batch dirties, so the rows
    are spread over the shards -- each shard once, in a random order,
    before any twice -- and every batch of a workload dirties the same
    number of shards whatever the seed.  A monolithic workload draws
    its rows from the whole table."""
    rng = random.Random(seed * 7919 + 17)
    shard_rows = workload.shard_rows or table.n_rows
    starts = list(range(0, table.n_rows, shard_rows))
    batches = []
    for column in workload.edit_columns:
        values = table.column_ref(column)
        batch = []
        order: List[int] = []
        for _ in range(workload.edits_per_batch):
            if not order:
                order = rng.sample(starts, len(starts))
            start = order.pop()
            row = start + rng.randrange(min(shard_rows, table.n_rows - start))
            donor = rng.randrange(table.n_rows)
            while values[donor] == values[row]:
                donor = rng.randrange(table.n_rows)
            batch.append((row, column, values[donor]))
        batches.append(batch)
    return batches


def reference(
    table: Table, batches: Sequence[Sequence[Tuple[int, str, str]]], relation: str
) -> List[Dict[str, object]]:
    """Monolithic from-scratch outputs at each session checkpoint.

    Checkpoint 0 is discovery + detection over the upload with every
    rule confirmed; checkpoint ``i`` follows edit batch ``i``.  The
    confirmations at a recheck mirror ``AnmatSession.recheck``: a rule
    stays confirmed when its content is unchanged, and when none
    survives the session confirms and detects the new rule set afresh.
    """
    config = DiscoveryConfig()
    checkpoints = []
    confirmed_keys = None
    for step in range(len(batches) + 1):
        if step:
            for row, column, value in batches[step - 1]:
                table.set_cell(row, column, value)
        pfds = PfdDiscoverer(config).discover(table, relation=relation)
        keys = [rule_key(pfd.to_dict()) for pfd in pfds]
        if confirmed_keys is None:
            confirmed = list(pfds)
        else:
            confirmed = [p for p, k in zip(pfds, keys) if k in confirmed_keys]
            if not confirmed:
                confirmed = list(pfds)
        confirmed_keys = {rule_key(pfd.to_dict()) for pfd in confirmed}
        report = ErrorDetector(table).detect_all(confirmed)
        checkpoints.append(checkpoint(pfds, report))
    return checkpoints


def generate(workload_name: str, seed: int, out_dir: Path) -> Path:
    """Write ``data.csv`` and ``inputs.json`` for one workload and seed."""
    workload = WORKLOADS[workload_name]
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = build_relation(workload.relation, workload.n_rows, seed)
    csv_path = write_csv(dataset.table, out_dir / "data.csv")
    # the reference reads the CSV back, exactly as the session will see it
    table = read_csv(csv_path)
    batches = edit_script(table, workload, seed)
    inputs = {
        "workload": workload_name,
        "seed": seed,
        "relation": workload.relation,
        "n_rows": table.n_rows,
        "csv_bytes": csv_path.stat().st_size,
        "batches": batches,
        "error_cells": sorted([row, attr] for row, attr in dataset.error_cells),
        "reference": reference(table, batches, workload.relation),
    }
    path = out_dir / "inputs.json"
    path.write_text(json.dumps(inputs))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
