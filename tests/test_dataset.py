import numpy as np
import pytest
from numpy.testing import assert_array_equal

from collindiag import (
    Column,
    ColumnRole,
    Dataset,
    DesignMatrix,
    design_matrix,
    load_csv,
    response_vector,
)
from collindiag.dataset import roles_from_flags

THEIL_ROLES = {
    "consumption": "response",
    "income": "quantitative",
    "relprice": "quantitative",
    "twenties": "dummy",
}


def write_theil_csv(tmp_path, theil_dataset, extra_header=None):
    path = tmp_path / "theil.csv"
    labels = [c.label for c in theil_dataset.columns]
    header = labels + (extra_header or [])
    rows = []
    for i in range(theil_dataset.n):
        row = [repr(float(c.values[i])) for c in theil_dataset.columns]
        row += ["1"] * len(extra_header or [])
        rows.append(",".join(row))
    path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestLoadCsv:
    def test_round_trip_is_bit_exact(self, tmp_path, theil_dataset):
        path = write_theil_csv(tmp_path, theil_dataset)
        ds = load_csv(path, THEIL_ROLES)
        assert ds.n == 17
        assert len(ds.columns) == 4
        for loaded, original in zip(ds.columns, theil_dataset.columns):
            assert loaded.label == original.label
            assert loaded.role == original.role
            assert_array_equal(loaded.values, original.values)

    def test_columns_not_in_roles_are_skipped(self, tmp_path, theil_dataset):
        path = write_theil_csv(tmp_path, theil_dataset, extra_header=["junk"])
        ds = load_csv(path, THEIL_ROLES)
        assert ds.skipped == ("junk",)
        assert [c.label for c in ds.columns] == list(THEIL_ROLES)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not found"):
            load_csv(tmp_path / "nope.csv", {})

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no header"):
            load_csv(path, {})

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"3.*'oops'.*'b'"):
            load_csv(path, {"a": "quantitative", "b": "quantitative"})

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("a,b\n1,2\n3,\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing value"):
            load_csv(path, {"a": "quantitative", "b": "quantitative"})

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2 cells"):
            load_csv(path, {"a": "quantitative"})

    def test_unknown_label_in_roles(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n1\n2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="ghost"):
            load_csv(path, {"ghost": "quantitative"})

    def test_dummy_with_other_values_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,d\n1,0\n2,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="0 and 1"):
            load_csv(path, {"a": "quantitative", "d": "dummy"})


AB = {"a": "quantitative", "b": "quantitative"}


def csv_error(tmp_path, text, roles=AB) -> tuple[str, str]:
    """The path written and the full message load_csv raises on text."""
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_csv(path, roles)
    return str(path), str(exc.value)


def csv_values(tmp_path, text, roles=AB) -> dict[str, list[float]]:
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    return {c.label: c.values.tolist() for c in load_csv(path, roles).columns}


class TestCsvGrammar:
    """The exact messages and the accepted cell grammar of load_csv."""

    def test_short_row(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b\n1,2\n3\n")
        assert msg == f"{path}:3: expected 2 cells, found 1"

    def test_extra_cell_after_last_used_column(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b,c\n1,2,3\n4,5,6,7\n", {"a": "quantitative"})
        assert msg == f"{path}:3: expected 3 cells, found 4"

    def test_extra_cell_on_every_row(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b\n1,2,3\n4,5,6\n")
        assert msg == f"{path}:2: expected 2 cells, found 3"

    def test_non_numeric_cell(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b\n1,2\n3,oops\n")
        assert msg == f"{path}:3: non-numeric value 'oops' in column 'b'"

    def test_missing_cell(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b\n1,2\n3, \n")
        assert msg == f"{path}:3: missing value in column 'b'"

    def test_first_bad_cell_in_column_order(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b\n1,x\n2,3\ny,4\n")
        assert msg == f"{path}:4: non-numeric value 'y' in column 'a'"

    def test_quoted_numeric_cell(self, tmp_path):
        assert csv_values(tmp_path, '"a","b"\n"1.5",2\n3," 4 "\n') == {
            "a": [1.5, 3.0], "b": [2.0, 4.0]}

    def test_padded_cells(self, tmp_path):
        assert csv_values(tmp_path, " a , b \n 1 ,\t2\n3,4 \n") == {
            "a": [1.0, 3.0], "b": [2.0, 4.0]}

    def test_quoted_comma_in_skipped_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('a,note,b\n1,"x,y",2\n3,plain,4\n', encoding="utf-8")
        ds = load_csv(path, AB)
        assert ds.skipped == ("note",)
        assert [c.values.tolist() for c in ds.columns] == [[1.0, 3.0], [2.0, 4.0]]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path, msg = csv_error(tmp_path, f"a,b\n1,2\n3,{cell}\n")
        assert msg == f"{path}:3: non-finite value '{cell}' in column 'b'"

    def test_non_finite_cell_after_bad_cells_of_earlier_columns(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b\n1,nan\n2,4\nx,5\n")
        assert msg == f"{path}:4: non-numeric value 'x' in column 'a'"

    @pytest.mark.parametrize("cell", ["1_000", "\u0661", "0x10", "1d5"])
    def test_numbers_outside_numpy_float_syntax_rejected(self, tmp_path, cell):
        path, msg = csv_error(tmp_path, f"a,b\n{cell},2\n3,4\n")
        assert msg == f"{path}:2: non-numeric value '{cell}' in column 'a'"

    def test_numbers_read_as_float_reads_them(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
        cells = [fmt.format(v) for v in values.tolist()
                 for fmt in ("{!r}", "{:.17g}", "{:.3e}", "{:f}", "{:.25E}", " {:+.0f} ")]
        path = tmp_path / "d.csv"
        path.write_text("a\n" + "\n".join(cells) + "\n", encoding="utf-8")
        assert_array_equal(load_csv(path, {"a": "quantitative"}).columns[0].values,
                           [float(cell) for cell in cells])

    @pytest.mark.parametrize("cell", ["+.5", "5.", "-1E-5", "1e+05", "INF", "-Infinity", "nAn",
                                      "1e", "e5", ".", "+", "1e5.5", "--1", "1.2.3", "infinit",
                                      "nan(1)", "in f", "1 2", "١", "1_0", "0x1"])
    def test_error_path_reads_numpy_float_syntax(self, tmp_path, cell):
        # the 'x' sends load_csv down its row-by-row error path, which must
        # take exactly the cells np.loadtxt takes
        path, msg = csv_error(tmp_path, f"a,b\n{cell},2\n3,x\n")
        try:
            finite = np.isfinite(np.loadtxt([cell], delimiter=",", comments=None)).all()
        except ValueError:
            assert msg == f"{path}:2: non-numeric value '{cell}' in column 'a'"
            return
        assert msg == (f"{path}:3: non-numeric value 'x' in column 'b'" if finite
                       else f"{path}:2: non-finite value '{cell}' in column 'a'")

    def test_numpy_float_syntax(self, tmp_path):
        assert csv_values(tmp_path, "a,b\n+1.,-.5e-3\n1E+05,.5\n") == {
            "a": [1.0, 1e5], "b": [-0.0005, 0.5]}

    def test_hash_inside_cell_is_not_a_comment(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b\n1,2\n2#x,3\n")
        assert msg == f"{path}:3: non-numeric value '2#x' in column 'a'"
        path, msg = csv_error(tmp_path, "a,b\n1,2\n3,4#x\n")
        assert msg == f"{path}:3: non-numeric value '4#x' in column 'b'"

    def test_header_only(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b\n")
        assert msg == f"{path}: no data rows"

    def test_blank_lines_are_skipped(self, tmp_path):
        assert csv_values(tmp_path, "a,b\n\n1,2\r\n\r\n3,4\n\n") == {
            "a": [1.0, 3.0], "b": [2.0, 4.0]}

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b\n1,2\n\n3,oops\n")
        assert msg == f"{path}:4: non-numeric value 'oops' in column 'b'"
        path, msg = csv_error(tmp_path, "a,b\n1,2\n\n\n3\n")
        assert msg == f"{path}:5: expected 2 cells, found 1"

    def test_blank_lines_only(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b\n\n\n")
        assert msg == f"{path}: no data rows"

    def test_whitespace_line_is_a_short_row(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,b\n1,2\n   \n3,4\n")
        assert msg == f"{path}:3: expected 2 cells, found 1"

    def test_bom_header(self, tmp_path):
        assert csv_values(tmp_path, "\ufeffa,b\n1,2\n3,4\n") == {
            "a": [1.0, 3.0], "b": [2.0, 4.0]}

    def test_old_mac_line_endings(self, tmp_path):
        assert csv_values(tmp_path, "a,b\r1,2\r3,4\r") == {"a": [1.0, 3.0], "b": [2.0, 4.0]}

    def test_roles_from_a_function_of_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a,b\n1,2,3\n4,5,7\n", encoding="utf-8")
        ds = load_csv(path, lambda header: roles_from_flags(header, "y", quants=["b"]))
        assert [(c.label, c.role.value) for c in ds.columns] == [
            ("y", "response"), ("b", "quantitative")]
        assert ds.skipped == ("a",)


class TestRolesFromFlags:
    def test_every_other_column_quantitative_by_default(self):
        assert roles_from_flags(["y", "a", "d"], "y", dummies=["d"]) == {
            "y": "response", "d": "dummy", "a": "quantitative"}

    def test_label_not_in_header(self):
        with pytest.raises(ValueError, match="^column 'z' not present in the CSV header$"):
            roles_from_flags(["y", "a"], "z")

    def test_label_with_two_roles(self):
        with pytest.raises(ValueError, match="^column 'a' declared with more than one role$"):
            roles_from_flags(["y", "a"], "y", dummies=["a"], quants=["a"])


class TestDataset:
    def test_kg_fixture_shape(self, kg_dataset):
        assert kg_dataset.n == 14
        assert len(kg_dataset.columns) == 4

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Dataset("bad", (
                Column("a", "quantitative", [1.0, 2.0]),
                Column("b", "quantitative", [1.0, 2.0, 3.0]),
            ))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dataset("bad", (
                Column("a", "quantitative", [1.0, 2.0]),
                Column("a", "quantitative", [3.0, 4.0]),
            ))

    def test_single_observation_rejected(self):
        with pytest.raises(ValueError, match="2 observations"):
            Dataset("bad", (Column("a", "quantitative", [1.0]),))

    def test_nan_is_a_missing_value(self):
        with pytest.raises(ValueError, match="missing"):
            Column("a", "quantitative", [1.0, float("nan")])

    def test_two_responses_rejected(self):
        with pytest.raises(ValueError, match="response"):
            Dataset("bad", (
                Column("y1", "response", [1.0, 2.0]),
                Column("y2", "response", [3.0, 4.0]),
            ))


class TestDesignMatrix:
    def test_theil_structure(self, theil_design):
        X = theil_design
        assert X.X.shape == (17, 4)
        assert X.intercept_present
        assert_array_equal(X.X[:, 0], np.ones(17))
        assert X.quantitative_idx == (1, 2)
        assert X.dummy_idx == (3,)
        assert X.labels == ("intercept", "income", "relprice", "twenties")

    def test_kg_structure(self, kg_design):
        assert kg_design.X.shape == (14, 4)
        assert kg_design.quantitative_idx == (1, 2, 3)
        assert kg_design.dummy_idx == ()

    def test_round_trip_reproduces_columns_bit_exactly(self, theil_dataset, theil_design):
        regressors = [c for c in theil_dataset.columns if c.role is not ColumnRole.RESPONSE]
        for j, col in enumerate(regressors, start=1):
            assert_array_equal(theil_design.X[:, j], col.values)

    def test_zero_variance_quantitative_rejected(self):
        ds = Dataset("bad", (
            Column("y", "response", [1.0, 2.0, 3.0]),
            Column("const", "quantitative", [5.0, 5.0, 5.0]),
        ))
        with pytest.raises(ValueError, match="const"):
            design_matrix(ds)

    def test_response_only_rejected(self):
        ds = Dataset("bad", (Column("y", "response", [1.0, 2.0]),))
        with pytest.raises(ValueError, match="no regressor"):
            design_matrix(ds)

    def test_no_intercept_flag(self, theil_dataset):
        import dataclasses

        ds = dataclasses.replace(theil_dataset, add_intercept=False)
        X = design_matrix(ds)
        assert not X.intercept_present
        assert X.X.shape == (17, 3)
        assert X.quantitative_idx == (0, 1)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate column labels: \['x'\]$"):
            DesignMatrix(X=np.column_stack([np.ones(3), np.arange(3.0), np.arange(3.0) ** 2]),
                         intercept_present=True, quantitative_idx=(1, 2), dummy_idx=(),
                         labels=("intercept", "x", "x"))

    def test_role_partition_enforced(self):
        with pytest.raises(ValueError, match="partition"):
            DesignMatrix(
                X=np.column_stack([np.ones(3), np.arange(3.0)]),
                intercept_present=True,
                quantitative_idx=(),
                dummy_idx=(),
                labels=("intercept", "x"),
            )

    def test_intercept_column_must_be_ones(self):
        with pytest.raises(ValueError, match="ones"):
            DesignMatrix(
                X=np.column_stack([np.arange(3.0), np.ones(3)]),
                intercept_present=True,
                quantitative_idx=(1,),
                dummy_idx=(),
                labels=("intercept", "x"),
            )


class TestResponseVector:
    def test_theil_first_entry(self, theil_dataset):
        y = response_vector(theil_dataset)
        assert y[0] == 99.2

    def test_kg_last_entry(self, kg_dataset):
        y = response_vector(kg_dataset)
        assert y[-1] == 111.4

    def test_no_response_rejected(self):
        ds = Dataset("bad", (Column("a", "quantitative", [1.0, 2.0]),))
        with pytest.raises(ValueError, match="found 0"):
            response_vector(ds)
