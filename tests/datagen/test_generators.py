"""Tests for the synthetic dataset generators."""

import pytest

from repro.datagen import (
    AREA_CODES,
    DEPARTMENTS,
    FIRST_NAMES,
    ZIP_PREFIXES,
    build_dataset,
    dataset_names,
    generate_compound_table,
    generate_employee_ids,
    generate_fullname_gender,
    generate_phone_state,
    generate_zip_city_state,
)
from repro.errors import ProjectError
from repro.patterns import parse_pattern


class TestPhoneState:
    def test_shapes_and_ground_truth(self):
        dataset = generate_phone_state(n_rows=300, seed=1, error_rate=0.05)
        assert dataset.table.n_rows == 300
        assert dataset.table.column_names() == ["phone_number", "state"]
        assert len(dataset.error_cells) == 15
        phone_pattern = parse_pattern("\\D{10}")
        for value in dataset.clean_table.column_ref("phone_number"):
            assert phone_pattern.matches(value)

    def test_area_code_determines_state_in_clean_data(self):
        dataset = generate_phone_state(n_rows=300, seed=1)
        for phone, state in zip(
            dataset.clean_table.column_ref("phone_number"),
            dataset.clean_table.column_ref("state"),
        ):
            assert AREA_CODES[phone[:3]] == state

    def test_phone_numbers_are_unique(self):
        dataset = generate_phone_state(n_rows=500, seed=2)
        numbers = dataset.clean_table.column_ref("phone_number")
        assert len(set(numbers)) == len(numbers)

    def test_errors_only_touch_state(self):
        dataset = generate_phone_state(n_rows=200, seed=3, error_rate=0.1)
        assert {attr for _row, attr in dataset.error_cells} == {"state"}

    def test_reproducibility(self):
        first = generate_phone_state(n_rows=100, seed=42)
        second = generate_phone_state(n_rows=100, seed=42)
        assert first.table == second.table
        assert first.error_cells == second.error_cells


class TestZipCityState:
    def test_prefix_semantics_in_clean_data(self):
        dataset = generate_zip_city_state(n_rows=300, seed=1)
        for zip_code, city, state in dataset.clean_table.iter_rows():
            expected_city, expected_state = ZIP_PREFIXES[zip_code[:3]]
            assert city == expected_city
            assert state == expected_state

    def test_error_families(self):
        dataset = generate_zip_city_state(
            n_rows=300, seed=1, city_error_rate=0.02, city_typo_rate=0.02,
            state_error_rate=0.02, state_case_rate=0.01,
        )
        touched_attributes = {attr for _row, attr in dataset.error_cells}
        assert touched_attributes == {"city", "state"}
        assert dataset.n_errors > 0

    def test_dirty_cells_differ_from_clean(self):
        dataset = generate_zip_city_state(n_rows=300, seed=1)
        for row, attribute in dataset.error_cells:
            assert dataset.table.cell(row, attribute) != dataset.clean_table.cell(row, attribute)


class TestFullnameGender:
    def test_first_name_determines_gender_in_clean_data(self):
        dataset = generate_fullname_gender(n_rows=300, seed=1)
        for full_name, gender in dataset.clean_table.iter_rows():
            first = full_name.split(", ")[1].split(" ")[0]
            assert FIRST_NAMES[first] == gender

    def test_format_matches_table_3(self):
        dataset = generate_fullname_gender(n_rows=100, seed=1)
        pattern = parse_pattern("\\LU\\LL*,\\ \\LU\\LL*\\A*")
        for full_name in dataset.clean_table.column_ref("full_name"):
            assert pattern.matches(full_name), full_name

    def test_errors_flip_gender(self):
        dataset = generate_fullname_gender(n_rows=200, seed=1, error_rate=0.05)
        for row, attribute in dataset.error_cells:
            assert attribute == "gender"
            assert dataset.table.cell(row, "gender") != dataset.clean_table.cell(row, "gender")


class TestEmployeeAndChembl:
    def test_employee_id_structure(self):
        dataset = generate_employee_ids(n_rows=200, seed=1)
        id_pattern = parse_pattern("\\LU-\\D-\\D{3}")
        for employee_id, department, _grade in dataset.clean_table.iter_rows():
            assert id_pattern.matches(employee_id)
            assert DEPARTMENTS[employee_id[0]] == department

    def test_employee_ids_beyond_capacity_raise(self):
        # ids are distinct and only 6 x 5 x 900 exist; asking for more
        # must fail up front instead of rejecting repeats forever
        from repro.datagen.employees import ID_CAPACITY

        assert ID_CAPACITY == 27_000
        with pytest.raises(ValueError, match="27000 distinct employee ids"):
            generate_employee_ids(n_rows=ID_CAPACITY + 1)

    def test_employee_ids_at_capacity_are_all_distinct(self):
        from repro.datagen.employees import ID_CAPACITY

        dataset = generate_employee_ids(n_rows=ID_CAPACITY, seed=2)
        ids = dataset.clean_table.column("employee_id")
        assert len(ids) == ID_CAPACITY
        assert len(set(ids)) == ID_CAPACITY

    def test_chembl_prefix_determines_type(self):
        dataset = generate_compound_table(n_rows=200, seed=1)
        for record_id, record_type, _source in dataset.clean_table.iter_rows():
            prefix = "".join(c for c in record_id if c.isalpha())
            from repro.datagen.chembl import ID_PREFIXES

            assert ID_PREFIXES[prefix] == record_type


class TestRegistry:
    def test_all_names_buildable(self):
        for name in dataset_names():
            dataset = build_dataset(name)
            assert dataset.table.n_rows > 0
            assert dataset.name == name

    def test_kwargs_forwarding(self):
        dataset = build_dataset("phone_state", n_rows=50, seed=9)
        assert dataset.table.n_rows == 50

    def test_unknown_name(self):
        with pytest.raises(ProjectError):
            build_dataset("no_such_dataset")

    def test_paper_tables_present(self):
        assert "paper_d1_name" in dataset_names()
        assert "paper_d2_zip" in dataset_names()


class TestPaperExamples:
    def test_d1_matches_table_1(self, name_dataset):
        assert name_dataset.table.column_names() == ["name", "gender"]
        assert name_dataset.table.cell(3, "gender") == "M"
        assert name_dataset.clean_table.cell(3, "gender") == "F"
        assert name_dataset.error_cells == {(3, "gender")}

    def test_d2_matches_table_2(self, zip_dataset):
        assert zip_dataset.table.cell(3, "city") == "New York"
        assert zip_dataset.clean_table.cell(3, "city") == "Los Angeles"
        assert zip_dataset.error_cells == {(3, "city")}
