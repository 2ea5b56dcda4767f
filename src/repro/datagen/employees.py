"""Structured employee-ID dataset (the paper's introduction example).

Employee IDs such as ``"F-9-107"`` encode meta-knowledge in their parts:
the leading letter determines the department ("F" → Finance) and the
middle digit determines the grade.  This models the anonymized MIT data
warehouse / company datasets mentioned in the demo, where identifiers
carry embedded semantics.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.datagen.corruption import CorruptionSpec, ErrorInjector, GeneratedDataset
from repro.dataset.table import Table

#: Department code (first character of the employee id) → department name.
DEPARTMENTS: Dict[str, str] = {
    "F": "Finance",
    "E": "Engineering",
    "H": "Human Resources",
    "M": "Marketing",
    "S": "Sales",
    "R": "Research",
}

#: Grade digit (second field of the employee id) → grade label.
GRADES: Dict[str, str] = {
    "1": "Junior",
    "3": "Associate",
    "5": "Senior",
    "7": "Principal",
    "9": "Director",
}

#: Serial numbers (third field of the employee id): three digits.
SERIAL_RANGE: Tuple[int, int] = (100, 1000)

#: How many distinct employee ids exist.
ID_CAPACITY = len(DEPARTMENTS) * len(GRADES) * (SERIAL_RANGE[1] - SERIAL_RANGE[0])


def generate_employee_ids(
    n_rows: int = 1500,
    seed: int = 31,
    department_error_rate: float = 0.02,
    grade_error_rate: float = 0.01,
) -> GeneratedDataset:
    """Generate the employee-ID table with wrong departments/grades injected.

    Ids are distinct, so ``n_rows`` may not exceed :data:`ID_CAPACITY`.
    """
    if n_rows > ID_CAPACITY:
        raise ValueError(
            f"n_rows={n_rows} exceeds the {ID_CAPACITY} distinct employee ids "
            f"({len(DEPARTMENTS)} departments x {len(GRADES)} grades x "
            f"{SERIAL_RANGE[1] - SERIAL_RANGE[0]} serials)"
        )
    rng = random.Random(seed)
    department_codes = sorted(DEPARTMENTS)
    grade_digits = sorted(GRADES)
    rows: List[Tuple[str, str, str]] = []
    seen = set()
    while len(rows) < n_rows:
        code = rng.choice(department_codes)
        grade = rng.choice(grade_digits)
        serial = rng.randrange(*SERIAL_RANGE)
        employee_id = f"{code}-{grade}-{serial}"
        if employee_id in seen:
            continue
        seen.add(employee_id)
        rows.append((employee_id, DEPARTMENTS[code], GRADES[grade]))
    clean = Table.from_rows(["employee_id", "department", "grade"], rows)
    injector = ErrorInjector(seed=seed + 1)
    dirty, error_cells = injector.corrupt(
        clean,
        [
            CorruptionSpec(
                "department",
                department_error_rate,
                kind="swap",
                alternatives=sorted(DEPARTMENTS.values()),
            ),
            CorruptionSpec(
                "grade",
                grade_error_rate,
                kind="swap",
                alternatives=sorted(GRADES.values()),
            ),
        ],
    )
    return GeneratedDataset(
        name="employee_ids",
        table=dirty,
        clean_table=clean,
        error_cells=error_cells,
        description=(
            "Employee IDs of the form 'F-9-107' (introduction example): the "
            "leading letter determines the department and the middle digit "
            "the grade; wrong departments and grades are injected."
        ),
    )
