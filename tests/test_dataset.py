import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from collindiag import (
    ColumnRole,
    Dataset,
    DesignMatrix,
    PerturbConfig,
    correlation_matrix,
    design_matrix,
    least_squares,
    load_csv,
    multicol,
    ols_fit,
    perturb_n,
    response_vector,
    vif,
)
from collindiag import linalg
from collindiag.dataset import roles_from_flags
from collindiag.diagnostics import coefficient_of_variation
from collindiag.perturb import perturb_column

THEIL_ROLES = {
    "consumption": "response",
    "income": "quantitative",
    "relprice": "quantitative",
    "twenties": "dummy",
}


def write_theil_csv(tmp_path, theil_dataset, extra_header=None):
    path = tmp_path / "theil.csv"
    header = list(theil_dataset.labels) + (extra_header or [])
    rows = []
    for i in range(theil_dataset.n):
        row = [repr(float(v)) for v in theil_dataset.values[i]]
        row += ["1"] * len(extra_header or [])
        rows.append(",".join(row))
    path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestLoadCsv:
    def test_round_trip_is_bit_exact(self, tmp_path, theil_dataset):
        path = write_theil_csv(tmp_path, theil_dataset)
        ds = load_csv(path, THEIL_ROLES)
        assert ds.n == 17
        assert len(ds.labels) == 4
        assert ds.labels == theil_dataset.labels
        assert ds.roles == theil_dataset.roles
        assert_array_equal(ds.values, theil_dataset.values)

    def test_columns_not_in_roles_are_skipped(self, tmp_path, theil_dataset):
        path = write_theil_csv(tmp_path, theil_dataset, extra_header=["junk"])
        ds = load_csv(path, THEIL_ROLES)
        assert ds.labels == tuple(THEIL_ROLES)
        assert ds.roles == tuple(map(ColumnRole, THEIL_ROLES.values()))
        assert_array_equal(ds.values, theil_dataset.values)

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
        ds = load_csv(path, {"a": "quantitative", "d": "dummy"})
        with pytest.raises(ValueError) as exc:
            design_matrix(ds)
        assert str(exc.value) == f"{path}: dummy column 'd' contains values other than 0 and 1"


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
    ds = load_csv(path, roles)
    return dict(zip(ds.labels, ds.values.T.tolist()))


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

    def test_bad_cell_right_of_a_skipped_column(self, tmp_path):
        path, msg = csv_error(tmp_path, "a,note,b\n1,x,2\n3,y,oops\n")
        assert msg == f"{path}:3: non-numeric value 'oops' in column 'b'"

    def test_quoted_comma_in_skipped_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('a,note,b\n1,"x,y",2\n3,plain,4\n', encoding="utf-8")
        ds = load_csv(path, AB)
        assert ds.labels == ("a", "b")
        assert ds.roles == (ColumnRole.QUANTITATIVE, ColumnRole.QUANTITATIVE)
        assert ds.values.T.tolist() == [[1.0, 3.0], [2.0, 4.0]]

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
        assert_array_equal(load_csv(path, {"a": "quantitative"}).values[:, 0],
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

    @pytest.mark.parametrize("text, roles, rule", [
        ("a,b\n1,2\n", AB, "at least 2 observations are required"),
        ("a,a\n1,2\n3,4\n", {"a": "quantitative"}, "duplicate column labels: ['a']"),
        ("a,d\n1,0\n2,2\n", {"a": "quantitative", "d": "dummy"},
         "dummy column 'd' contains values other than 0 and 1"),
        ("a,b\n1,2\n3,2\n", AB, "quantitative column 'b' has zero variance"),
    ])
    def test_table_rule_names_the_file(self, tmp_path, text, roles, rule):
        # load_csv checks the table, design_matrix a design's column rules
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            design_matrix(load_csv(path, roles))
        assert str(exc.value) == f"{path}: {rule}"

    def test_roles_from_a_function_of_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a,b\n1,2,3\n4,5,7\n", encoding="utf-8")
        ds = load_csv(path, lambda header: roles_from_flags(header, "y", quants=["b"]))
        assert list(zip(ds.labels, ds.roles)) == [("y", "response"), ("b", "quantitative")]
        assert ds.values.tolist() == [[1.0, 3.0], [4.0, 7.0]]


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


QQ = ("quantitative", "quantitative")


class TestDataset:
    """The table gate: one message per rule, over the whole table."""

    def test_kg_fixture_shape(self, kg_dataset):
        assert kg_dataset.n == 14
        assert len(kg_dataset.labels) == 4

    def test_unequal_lengths_rejected(self):
        # labels, roles and the columns of values disagree in number
        with pytest.raises(ValueError, match=r"^2 labels, 2 roles, \(2, 3\) values$"):
            Dataset("bad", ("a", "b"), QQ, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(ValueError, match=r"^2 labels, 1 roles, \(2, 2\) values$"):
            Dataset("bad", ("a", "b"), ("quantitative",), [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match=r"^1 labels, 1 roles, \(2,\) values$"):
            Dataset("bad", ("a",), ("quantitative",), [1.0, 2.0])

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError, match="^dataset has no columns$"):
            Dataset("bad", (), (), np.empty((3, 0)))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate column labels: \['a'\]$"):
            Dataset("bad", ("a", "a"), QQ, [[1.0, 3.0], [2.0, 4.0]])

    def test_single_observation_rejected(self):
        with pytest.raises(ValueError, match="^at least 2 observations are required$"):
            Dataset("bad", ("a",), ("quantitative",), [[1.0]])

    def test_nan_is_a_missing_value(self):
        with pytest.raises(ValueError, match="^column 'a' contains missing or non-finite values$"):
            Dataset("bad", ("a",), ("quantitative",), [[1.0], [float("nan")]])

    def test_first_non_finite_column_is_named(self):
        with pytest.raises(ValueError, match="^column 'b' contains missing or non-finite values$"):
            Dataset("bad", ("a", "b", "c"), (*QQ, "quantitative"),
                    [[1.0, 2.0, float("nan")], [3.0, float("inf"), 4.0]])

    def test_two_responses_rejected(self):
        with pytest.raises(ValueError, match="^more than one response column declared$"):
            Dataset("bad", ("y1", "y2"), ("response", "response"), [[1.0, 3.0], [2.0, 4.0]])

    def test_dummy_with_other_values_rejected(self):
        ds = Dataset("bad", ("a", "d"), ("quantitative", "dummy"), [[1.0, 0.0], [2.0, 0.5]])
        with pytest.raises(ValueError,
                           match="^bad: dummy column 'd' contains values other than 0 and 1$"):
            design_matrix(ds)

    def test_roles_given_as_strings_are_column_roles(self):
        ds = Dataset("t", ("y", "x", "d"), ("response", "quantitative", "dummy"),
                     [[1.0, 2.0, 0.0], [3.0, 5.0, 1.0]])
        assert ds.roles == (ColumnRole.RESPONSE, ColumnRole.QUANTITATIVE, ColumnRole.DUMMY)
        assert all(type(role) is ColumnRole for role in ds.roles)
        assert ds.labels == ("y", "x", "d")

    def test_values_are_a_read_only_copy(self):
        source = np.array([[1.0, 2.0], [3.0, 4.0]])
        ds = Dataset("t", ("a", "b"), QQ, source)
        source[0, 0] = 9.0
        assert ds.values[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.values[0, 0] = 9.0


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
        regressors = [j for j, role in enumerate(theil_dataset.roles)
                      if role is not ColumnRole.RESPONSE]
        for i, j in enumerate(regressors, start=1):
            assert_array_equal(theil_design.X[:, i], theil_dataset.values[:, j])

    def test_zero_variance_quantitative_rejected(self):
        ds = Dataset("bad", ("y", "const"), ("response", "quantitative"),
                     [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        for intercept in (True, False):
            with pytest.raises(ValueError, match="^bad: quantitative column 'const' has zero"):
                design_matrix(ds, intercept)

    def test_response_only_rejected(self):
        ds = Dataset("bad", ("y",), ("response",), [[1.0], [2.0]])
        with pytest.raises(ValueError, match="^bad: dataset has no regressor columns$"):
            design_matrix(ds)

    def test_no_intercept_flag(self, theil_dataset):
        X = design_matrix(theil_dataset, intercept=False)
        assert not X.intercept_present
        assert X.X.shape == (17, 3)
        assert X.quantitative_idx == (0, 1)

    def test_intercept_is_an_argument(self, kg_dataset):
        with_intercept = design_matrix(kg_dataset)
        without = design_matrix(kg_dataset, intercept=False)
        assert with_intercept.intercept_present and not without.intercept_present
        assert with_intercept.labels == ("intercept", *without.labels)
        assert_array_equal(with_intercept.X[:, 1:], without.X)
        assert without.quantitative_idx == tuple(i - 1 for i in with_intercept.quantitative_idx)

    def test_the_dataset_holds_no_intercept_choice(self, tmp_path):
        import dataclasses

        assert "add_intercept" not in {f.name for f in dataclasses.fields(Dataset)}
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n2,1\n3,5\n", encoding="utf-8")
        with pytest.raises(TypeError):
            load_csv(path, AB, add_intercept=False)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate column labels: \['x'\]$"):
            DesignMatrix(X=np.column_stack([np.ones(3), np.arange(3.0), np.arange(3.0) ** 2]),
                         intercept_present=True, quantitative_idx=(1, 2), dummy_idx=(),
                         labels=("intercept", "x", "x"))

    def test_dummy_outside_zero_one_rejected(self):
        with pytest.raises(ValueError,
                           match="^dummy column 'd' contains values other than 0 and 1$"):
            DesignMatrix(X=np.column_stack([np.ones(3), np.arange(3.0), [0.5, 2.0, 0.5]]),
                         intercept_present=True, quantitative_idx=(1,), dummy_idx=(2,),
                         labels=("intercept", "x", "d"))

    def test_role_partition_enforced(self):
        with pytest.raises(ValueError, match="partition"):
            DesignMatrix(
                X=np.column_stack([np.ones(3), np.arange(3.0)]),
                intercept_present=True,
                quantitative_idx=(),
                dummy_idx=(),
                labels=("intercept", "x"),
            )

    @pytest.mark.parametrize("X, labels, message", [
        (np.ones(3), ("intercept",), "X must be a 2-d matrix"),
        (np.column_stack([np.ones(3), [0.0, np.nan, 2.0]]), ("intercept", "x"),
         "column 'x' contains missing or non-finite values"),
        (np.column_stack([np.ones(3), np.arange(3.0)]), ("intercept",), "1 labels for 2 columns"),
    ], ids=["1-d", "non-finite", "label-count"])
    def test_malformed_matrix_rejected(self, X, labels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DesignMatrix(X=X, intercept_present=True, quantitative_idx=(1,), dummy_idx=(),
                         labels=labels)

    def test_intercept_column_must_be_ones(self):
        with pytest.raises(ValueError, match="ones"):
            DesignMatrix(
                X=np.column_stack([np.arange(3.0), np.ones(3)]),
                intercept_present=True,
                quantitative_idx=(1,),
                dummy_idx=(),
                labels=("intercept", "x"),
            )


def bits(result):
    """Every number in a result, dataclasses and arrays included, as bytes."""
    if dataclasses.is_dataclass(result):
        return [bits(getattr(result, f.name)) for f in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return [bits(r) for r in result]
    if isinstance(result, dict):
        return sorted((key, bits(r)) for key, r in result.items())
    if isinstance(result, (np.ndarray, float)):
        return np.ascontiguousarray(result, dtype=float).tobytes()
    return result


class TestColumnMajor:
    """DesignMatrix keeps X column-major whatever the input's layout, and the
    input's layout changes no result.  N rows take _r_factor's panels."""

    N = 16_000
    LABELS = ("intercept", "x1", "x2", "x3", "x4", "d")

    @classmethod
    def layouts(cls) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(24)
        X = np.column_stack([np.ones(cls.N), rng.normal(rng.uniform(1, 5, 4), 1.0, (cls.N, 4)),
                             rng.random(cls.N) < 0.3])
        X[:, 2] += 0.5 * X[:, 1]
        wide = np.zeros((cls.N, 2 * X.shape[1]))
        wide[:, ::2] = X
        return {"C": np.ascontiguousarray(X), "F": np.asfortranarray(X), "strided": wide[:, ::2]}

    @classmethod
    def design(cls, X) -> DesignMatrix:
        return DesignMatrix(X=X, intercept_present=True, quantitative_idx=(1, 2, 3, 4),
                            dummy_idx=(5,), labels=cls.LABELS)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_x_is_a_column_major_read_only_copy(self, layout):
        given = self.layouts()[layout]
        X = self.design(given).X
        assert X.flags.f_contiguous and not X.flags.writeable
        assert not np.shares_memory(X, given)
        assert_array_equal(X, given)

    def test_results_do_not_depend_on_the_input_layout(self):
        y = self.layouts()["C"] @ np.arange(1.0, 7.0)
        y += np.random.default_rng(5).normal(size=self.N)
        results = [bits([multicol(X), ols_fit(y, X), perturb_n(y, X, PerturbConfig(
            iterations=30, seed=7))]) for X in map(self.design, self.layouts().values())]
        assert results[1:] == results[:1] * 2

    def test_every_qr_reads_whole_columns(self, monkeypatch):
        given = self.layouts()["C"]
        X = self.design(given)
        no_intercept = DesignMatrix(X=given[:, 1:], intercept_present=False,
                                    quantitative_idx=(0, 1, 2, 3), dummy_idx=(4,),
                                    labels=self.LABELS[1:])
        seen = []

        def qr(a, mode, _fn=np.linalg.qr):
            seen.append((a.strides[-2], np.shares_memory(a, X.X)))
            return _fn(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", qr)
        X.factors  # the panels of a centered copy of X's non-intercept columns
        no_intercept.factors  # the same five columns
        ols_fit(np.arange(float(self.N)), X)  # the panels of a new [X | y]
        # each call's first QR takes the panels; then their R factors and leftover rows
        assert seen[::2] == [(8, False), (8, False), (8, False)]
        assert np.array_equal(X.factors[1:, 1:], no_intercept.factors[1:, :-1])


class TestFactors:
    """factors is taken from the centered columns, yet every column block
    of it has the singular values and column norms of the same block of X,
    or of [X | 1] when X has no intercept."""

    @staticmethod
    def assert_blocks_match(M: np.ndarray, A: np.ndarray):
        k = A.shape[1]
        rng = np.random.default_rng(3)
        blocks = [[j] for j in range(k)] + [list(range(k))]
        blocks += [sorted(rng.choice(k, int(rng.integers(2, k)), replace=False)) for _ in range(20)]
        for cols in blocks:
            want = np.linalg.svd(A[:, cols], compute_uv=False)
            assert_allclose(np.linalg.svd(M[:, cols], compute_uv=False), want[:len(M)],
                            rtol=0, atol=1e-13 * want[0], err_msg=str(cols))
            assert_allclose(np.linalg.norm(M[:, cols], axis=0), np.linalg.norm(A[:, cols], axis=0),
                            rtol=1e-14, atol=0, err_msg=str(cols))

    def test_without_an_intercept_the_ones_column_is_last(self):
        rng = np.random.default_rng(6)
        n = 40
        x1 = rng.normal(50.0, 2.0, n)
        X = np.column_stack([x1, rng.random(n) < 0.4, x1 + rng.normal(size=n),
                             rng.normal(size=n)])
        design = DesignMatrix(X=X, intercept_present=False, quantitative_idx=(0, 2, 3),
                              dummy_idx=(1,), labels=("x1", "d", "x2", "x3"))
        M = design.factors
        assert M.shape == (5, 5)
        assert M[0, -1] == np.sqrt(n) and not M[1:, -1].any()
        assert np.tril(M, -1).any()  # not triangular, and no consumer needs it to be
        self.assert_blocks_match(M, np.column_stack([X, np.ones(n)]))

    def test_a_wide_design_keeps_at_most_n_rows(self):
        # n = 5 rows and k = 7 columns; the first four centered columns have rank 3, so a plain
        # R of the centered columns would keep a fifth row, nonzero in q1 and q2
        rng = np.random.default_rng(3)
        d1, d3, d4 = [1.0, 0, 1, 0, 0], [0.0, 1, 1, 0, 1], [1.0, 1, 0, 0, 0]
        Q = rng.normal(3.0, 1.0, (5, 2))
        X = np.column_stack([np.ones(5), d1, d1, d3, d4, Q])
        design = DesignMatrix(X=X, intercept_present=True, quantitative_idx=(5, 6),
                              dummy_idx=(1, 2, 3, 4),
                              labels=("intercept", "d1", "d2", "d3", "d4", "q1", "q2"))
        assert design.factors.shape == (5, 7)
        self.assert_blocks_match(design.factors, X)
        with pytest.raises(linalg.SingularMatrixError, match=linalg.SINGULAR_MESSAGE):
            multicol(design)
        r = np.corrcoef(Q.T)[0, 1]
        assert_allclose([v for _, v in vif(design)], [1.0 / (1.0 - r * r)] * 2, rtol=1e-14)
        assert correlation_matrix(design).r[0, 1] == pytest.approx(r, rel=1e-14)


class TestResponseVector:
    def test_theil_first_entry(self, theil_dataset):
        y = response_vector(theil_dataset)
        assert y[0] == 99.2

    def test_kg_last_entry(self, kg_dataset):
        y = response_vector(kg_dataset)
        assert y[-1] == 111.4

    def test_no_response_rejected(self):
        ds = Dataset("bad", ("a",), ("quantitative",), [[1.0], [2.0]])
        with pytest.raises(ValueError, match="found 0"):
            response_vector(ds)

    def test_is_a_read_only_view_of_the_table(self, theil_dataset):
        y = response_vector(theil_dataset)
        assert np.shares_memory(y, theil_dataset.values)
        assert_array_equal(y, theil_dataset.values[:, 0])
        with pytest.raises(ValueError, match="read-only"):
            y[0] = 0.0


def large_column_table(n: int, peak: float, large: str) -> Dataset:
    """Response y and regressors a and b over n rows: column large spans
    [peak / 2, peak], its largest magnitude |peak|; the others are normal."""
    rng = np.random.default_rng(n)
    columns = {"y": rng.normal(size=n), "a": rng.normal(size=n), "b": rng.normal(size=n)}
    columns[large] = peak * np.append(1.0, rng.uniform(0.5, 1.0, n - 1))
    return Dataset("t", ("y", "a", "b"), ("response", "quantitative", "quantitative"),
                   np.column_stack(list(columns.values())))


class TestColumnSums:
    """Every column x of n rows has n * max|x| <= the largest double, so each
    sum, mean and norm the measures take of it is finite; past that, the
    column is named.  A RuntimeWarning fails these tests (pyproject.toml)."""

    BIGGEST = float(np.finfo(float).max)

    @pytest.mark.parametrize("large", ["a", "y"])
    @pytest.mark.parametrize("n", [20, 2000])
    def test_inside_the_bound_every_measure_is_finite(self, n, large):
        d = large_column_table(n, 0.999 * (self.BIGGEST / n), large)
        X, y = design_matrix(d), response_vector(d)
        report = multicol(X)
        numbers = [v for _, v in report.cv + report.vifs] + [
            report.correlation.det_r, report.cn.cn_with, report.cn.cn_without,
            *report.stewart.k2, *report.stewart.essential_pct]
        fit = ols_fit(y, X)
        numbers += [*fit.beta, *fit.se, *fit.p, fit.sigma, fit.r2, fit.f_stat, fit.f_p]
        result = perturb_n(y, X, PerturbConfig(iterations=5, seed=1))
        numbers += [*result.achieved_pct, *result.change_pct]
        assert np.isfinite(numbers).all()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", [20, 2000])
    def test_past_the_bound_the_column_is_named(self, n, sign):
        peak = sign * 1.001 * (self.BIGGEST / n)
        message = ("^column '{}' is too large to sum: "
                   + re.escape(f"{n} values up to {abs(peak):.7g}") + "$")
        for large in ("a", "y"):
            with pytest.raises(ValueError, match=message.format(large)):
                large_column_table(n, peak, large)
        X = design_matrix(large_column_table(n, 1.0, "y"))
        big = X.X.copy()
        big[:, 1] = peak * np.append(1.0, np.linspace(0.5, 1.0, n - 1))
        with pytest.raises(ValueError, match=message.format("a")):
            DesignMatrix(X=big, intercept_present=True, quantitative_idx=(1, 2), dummy_idx=(),
                         labels=X.labels)
        for fit in (lambda y: least_squares(X.X, y), lambda y: ols_fit(y, X),
                    lambda y: perturb_n(y, X, PerturbConfig(iterations=5, seed=1))):
            with pytest.raises(ValueError, match=message.format("response")):
                fit(big[:, 1])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "too large"])
    def test_every_door_names_the_bad_column(self, monkeypatch, bad):
        """Each door applies the one column rule, so a bad column x raises one
        ValueError naming x, before any fit: _qr_fit is made to fail."""
        n = 20
        good = large_column_table(n, 1.0, "y")
        x = good.values[:, 1].copy()
        if bad == "too large":
            x *= 1.001 * (self.BIGGEST / n) / np.abs(x).max()
            rest = re.escape(f"is too large to sum: {n} values up to {np.abs(x).max():.7g}")
        else:
            x[3] = float(bad)
            rest = "contains missing or non-finite values"
        values = good.values.copy()
        values[:, 1] = x
        X = design_matrix(good)
        big = X.X.copy()
        big[:, 1] = x

        def no_fit(*args):
            raise AssertionError("a value that breaks the column rule reached _qr_fit")

        monkeypatch.setattr(linalg, "_qr_fit", no_fit)
        doors = [
            ("a", lambda: Dataset("t", good.labels, good.roles, values)),
            ("a", lambda: DesignMatrix(X=big, intercept_present=True, quantitative_idx=(1, 2),
                                       dummy_idx=(), labels=X.labels)),
            (1, lambda: least_squares(big, np.arange(n, dtype=float))),
            ("response", lambda: least_squares(X.X, x)),
            ("response", lambda: ols_fit(x, X)),
            ("response", lambda: perturb_n(x, X, PerturbConfig(iterations=5, seed=1))),
            ("col", lambda: coefficient_of_variation(x)),
            ("x", lambda: perturb_column(x, 0.01, np.ones(n))),
        ]
        for label, door in doors:
            with pytest.raises(ValueError, match=f"^column {label!r} {rest}$") as caught:
                door()
            assert caught.type is ValueError

    @pytest.mark.parametrize("tol, label", [(1e308, "a"), (1e303, "b")])
    def test_an_overflowing_draw_never_reaches_the_fit(self, monkeypatch, tol, label):
        """The perturbed columns are checked once per block, before the refit,
        and the first that overflows is named: at tol 1e303 only b, whose
        norm is 1e6 times a's, overflows.  Only the baseline fit reaches
        _qr_fit."""
        rng = np.random.default_rng(6)
        a, b = rng.uniform(1.0, 2.0, 20), 1e6 * rng.uniform(1.0, 2.0, 20)
        X = DesignMatrix(X=np.column_stack([np.ones(20), a, b]), intercept_present=True,
                         quantitative_idx=(1, 2), dummy_idx=(), labels=("intercept", "a", "b"))
        qr_fit, fitted = linalg._qr_fit, []

        def counted(A, *args):
            fitted.append(len(A))
            return qr_fit(A, *args)

        monkeypatch.setattr(linalg, "_qr_fit", counted)
        message = re.escape(f"tol={tol:g} perturbs column '{label}' past the largest double")
        with pytest.raises(ValueError, match=f"^{message}$"):
            perturb_n(a + b, X, PerturbConfig(tol=tol, iterations=5000, seed=1))
        assert fitted == [1]
