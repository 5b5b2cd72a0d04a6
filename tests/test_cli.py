import json
import os
import warnings

import pytest

from collindiag import cli, cns, design_matrix, fixture, ols_fit, response_vector, vif
from collindiag.cli import THRESHOLDS_ENV, main
from collindiag.diagnostics import NEED_ONE_QUANTITATIVE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestDataSourceFlags:
    def test_requires_data_or_fixture(self, capsys):
        code, _, err = run(capsys, "vif")
        assert code == 2
        assert "exactly one of --data or --fixture" in err

    def test_both_data_and_fixture_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a\n1\n2\n", encoding="utf-8")
        code, _, err = run(capsys, "vif", "--data", str(path), "--fixture", "theil")
        assert code == 2

    def test_unknown_fixture_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["vif", "--fixture", "foo"])
        assert exc.value.code == 2

    def test_fixture_error_message_lists_names(self):
        with pytest.raises(ValueError, match="theil"):
            fixture("foo")

    def test_role_flags_only_for_data(self, capsys):
        code, _, err = run(capsys, "vif", "--fixture", "theil", "--response", "x")
        assert code == 2
        assert "apply only to --data" in err

    def test_missing_data_file(self, capsys):
        code, _, err = run(capsys, "vif", "--data", "/nonexistent/file.csv")
        assert code == 2
        assert "not found" in err


class TestCsvPath:
    @pytest.fixture()
    def theil_csv(self, tmp_path, theil_dataset):
        from test_dataset import write_theil_csv

        return write_theil_csv(tmp_path, theil_dataset)

    def test_csv_matches_fixture(self, capsys, theil_csv):
        code, payload, _ = run_json(
            capsys, "vif", "--data", str(theil_csv),
            "--response", "consumption", "--dummy", "twenties")
        assert code == 0
        values = [entry["value"] for entry in payload["result"]["vif"]]
        fixture_values = [v for _, v in vif(design_matrix(fixture("theil")))]
        assert values == fixture_values

    def test_quant_flag_restricts_columns(self, capsys, theil_csv):
        code, payload, _ = run_json(
            capsys, "cv", "--data", str(theil_csv),
            "--response", "consumption", "--dummy", "twenties",
            "--quant", "income")
        assert code == 0
        assert [e["label"] for e in payload["result"]["cv"]] == ["income"]

    def test_unknown_role_label(self, capsys, theil_csv):
        code, _, err = run(capsys, "vif", "--data", str(theil_csv),
                           "--response", "nope")
        assert code == 2
        assert "nope" in err

    def test_bom_header_reads_as_without(self, capsys, tmp_path, theil_csv):
        bom = tmp_path / "bom.csv"
        bom.write_text("\ufeff" + theil_csv.read_text(encoding="utf-8"), encoding="utf-8")
        flags = ("--response", "consumption", "--dummy", "twenties")
        plain = run(capsys, "multicol", "--data", str(theil_csv), *flags)
        assert plain[0] == 0
        assert run(capsys, "multicol", "--data", str(bom), *flags) == plain

    @pytest.mark.parametrize("bad_row", [False, True])
    def test_data_file_opened_once(self, capsys, monkeypatch, theil_csv, bad_row):
        if bad_row:
            theil_csv.write_text(theil_csv.read_text(encoding="utf-8") + "1,2\n", encoding="utf-8")
        opened, real_open = [], open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        code, _, _ = run(capsys, "multicol", "--data", str(theil_csv),
                         "--response", "consumption", "--dummy", "twenties")
        assert code == (2 if bad_row else 0)
        assert opened.count(str(theil_csv)) == 1


class TestCsvErrors:
    """The CLI prints each ingest error as one byte-exact line."""

    def error(self, capsys, tmp_path, text, *flags):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "vif", "--data", str(path), *flags)
        assert (code, out) == (2, "")
        return str(path), err

    def test_missing_file(self, capsys):
        _, _, err = run(capsys, "vif", "--data", "/nonexistent/file.csv")
        assert err == "error: data file not found: /nonexistent/file.csv\n"

    def test_directory(self, capsys, tmp_path):
        _, out, err = run(capsys, "vif", "--data", str(tmp_path))
        assert out == "" and err == f"error: {tmp_path}: Is a directory\n"

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="the superuser reads a file without read permission")
    def test_unreadable_file(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a\n1,2\n", encoding="utf-8")
        path.chmod(0)
        code, out, err = run(capsys, "vif", "--data", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: Permission denied\n")

    def test_unreadable_thresholds_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(THRESHOLDS_ENV, str(tmp_path))
        code, out, err = run(capsys, "vif", "--fixture", "kg")
        assert (code, out, err) == (2, "", f"error: {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("data, lineno", [
        (b"y,a,b\n1,2,3\n4,\xff5,6\n", 3),
        (b"y,a\xff,b\n1,2,3\n", 1),
        (b"y,a,b\r\n1,2,3\r\n\r\n4,5,6\r\n7,8,\xc3", 5),  # blank lines count; cut-off sequence
        (b"y,a,b,note\n1,2,3,caf\xe9\n", 2),  # in a skipped column too
    ])
    def test_not_utf8(self, capsys, tmp_path, data, lineno):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        code, out, err = run(capsys, "vif", "--data", str(path), "--response", "y",
                             "--quant", "a", "--quant", "b")
        assert (code, out, err) == (2, "", f"error: {path}:{lineno}: not valid UTF-8\n")

    @pytest.mark.parametrize("data, lineno", [
        (b"vif_limit = 5\n# caf\xe9\n", 2),  # in a comment too
        (b"\xffvif_limit = 5\n", 1),
        (b"vif_limit = 5\r\n\r\ncn_severe = 40 \xc3", 3),  # blank lines count; cut-off sequence
    ])
    def test_thresholds_file_not_utf8(self, capsys, tmp_path, monkeypatch, data, lineno):
        path = tmp_path / "thresholds.cfg"
        path.write_bytes(data)
        monkeypatch.setenv(THRESHOLDS_ENV, str(path))
        code, out, err = run(capsys, "vif", "--fixture", "kg")
        assert (code, out, err) == (2, "", f"error: {path}:{lineno}: not valid UTF-8\n")

    def test_thresholds_file_bom_reads_as_without(self, capsys, tmp_path, monkeypatch):
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / "thresholds.cfg"
            path.write_bytes(bom + b"vif_limit = 5\n")
            monkeypatch.setenv(THRESHOLDS_ENV, str(path))
            outputs.append(run(capsys, "vif", "--fixture", "kg"))
        assert outputs[1] == outputs[0]
        assert outputs[0][0] == 0 and "> limit 5\n" in outputs[0][1]

    def test_empty_file(self, capsys, tmp_path):
        path, err = self.error(capsys, tmp_path, "")
        assert err == f"error: {path}: no header row (empty file)\n"

    def test_header_only(self, capsys, tmp_path):
        path, err = self.error(capsys, tmp_path, "y,a,b\n", "--response", "y")
        assert err == f"error: {path}: no data rows\n"

    def test_label_not_in_header(self, capsys, tmp_path):
        _, err = self.error(capsys, tmp_path, "y,a\n1,2\n", "--response", "z")
        assert err == "error: column 'z' not present in the CSV header\n"

    def test_label_with_two_roles(self, capsys, tmp_path):
        _, err = self.error(capsys, tmp_path, "y,a\n1,2\n", "--response", "y", "--quant", "y")
        assert err == "error: column 'y' declared with more than one role\n"

    def test_short_row(self, capsys, tmp_path):
        path, err = self.error(capsys, tmp_path, "y,a,b\n1,2,3\n4,5\n", "--response", "y")
        assert err == f"error: {path}:3: expected 3 cells, found 2\n"

    def test_extra_cell_after_last_quant_column(self, capsys, tmp_path):
        path, err = self.error(capsys, tmp_path, "y,a,b,c\n1,2,3,4\n5,6,7,8,9\n",
                               "--response", "y", "--quant", "a", "--quant", "b")
        assert err == f"error: {path}:3: expected 4 cells, found 5\n"

    def test_non_numeric_cell(self, capsys, tmp_path):
        path, err = self.error(capsys, tmp_path, "y,a,b\n1,2,3\n4,5,oops\n", "--response", "y")
        assert err == f"error: {path}:3: non-numeric value 'oops' in column 'b'\n"

    def test_quoted_comma_in_skipped_column_keeps_cells_in_place(self, capsys, tmp_path):
        path, err = self.error(capsys, tmp_path, "y,a,b,note\n1,2,3,x\n4,5,oops,\"p,q\"\n",
                               "--response", "y", "--quant", "a", "--quant", "b")
        assert err == f"error: {path}:3: non-numeric value 'oops' in column 'b'\n"

    def test_data_column_named_intercept(self, capsys, tmp_path):
        _, err = self.error(capsys, tmp_path, "intercept,a,b\n1,2,3\n4,5,7\n7,8,8\n")
        assert err == "error: duplicate column labels: ['intercept']\n"

    def test_non_finite_cell(self, capsys, tmp_path):
        path, err = self.error(capsys, tmp_path, "y,a,b\n1,2,3\n4,nan,6\n", "--response", "y")
        assert err == f"error: {path}:3: non-finite value 'nan' in column 'a'\n"


class TestReports:
    def test_rdetr_kg_verdict_line(self, capsys):
        code, out, _ = run(capsys, "rdetr", "--fixture", "kg")
        assert code == 0
        assert "PROBLEMATIC: det(R)=0.03713592 < threshold 0.06098764" in out

    def test_rdetr_theil_ok(self, capsys):
        code, out, _ = run(capsys, "rdetr", "--fixture", "theil")
        assert "OK: det(R)=0.9680139 >= threshold 0.07508642" in out
        assert "0.1788467" in out

    def test_vif_json_values(self, capsys):
        code, payload, _ = run_json(capsys, "vif", "--fixture", "theil")
        assert code == 0
        values = [e["value"] for e in payload["result"]["vif"]]
        assert values == pytest.approx([1.033043, 1.033043], rel=1e-5)

    def test_cns_kg_json(self, capsys):
        code, payload, _ = run_json(capsys, "cns", "--fixture", "kg")
        result = payload["result"]
        assert result["without"] == pytest.approx(30.2987, rel=1e-4)
        assert result["with"] == pytest.approx(35.88644, rel=1e-4)
        assert result["increase_pct"] == pytest.approx(15.57062, rel=1e-4)

    def test_cn_text(self, capsys):
        code, out, _ = run(capsys, "cn", "--fixture", "theil")
        assert "53.39671" in out
        assert "PROBLEMATIC: CN=53.39671 > 30" in out

    def test_ki_text_labels(self, capsys):
        code, out, _ = run(capsys, "ki", "--fixture", "theil")
        assert "Stewart index" in out
        assert "essential collinearity" in out
        assert "403.2096" in out

    def test_ki_data_column_named_intercept(self, capsys, tmp_path):
        # without the synthesized intercept, a data column may be named so
        path = tmp_path / "d.csv"
        path.write_text("intercept,x\n1,2\n2,1\n3,5\n4,3\n", encoding="utf-8")
        code, out, _ = run(capsys, "ki", "--data", str(path), "--no-intercept")
        assert code == 0
        lines = out.splitlines()
        for title in ("Proportion of essential collinearity (in percentage)",
                      "Proportion of non-essential collinearity (in percentage)"):
            at = lines.index(title)
            assert [row.split()[0] for row in lines[at + 1:at + 3]] == ["intercept", "x"]

    def test_cv_without_quantitative_regressors(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("d\n0\n1\n1\n", encoding="utf-8")
        code, out, err = run(capsys, "cv", "--data", str(path), "--dummy", "d")
        assert (code, out) == (2, "")
        assert err == f"error: {NEED_ONE_QUANTITATIVE}\n"

    def test_cv_flags_income(self, capsys):
        code, out, _ = run(capsys, "cv", "--fixture", "theil")
        assert "PROBLEMATIC: CV(income)=0.04993766 < threshold 0.1002506" in out

    def test_slm_needs_two_columns(self, capsys):
        code, _, err = run(capsys, "slm", "--fixture", "kg")
        assert code == 2
        assert "Only 2 independent variables are needed (including the intercept)" in err

    def test_multicol_theil_sections(self, capsys):
        code, out, _ = run(capsys, "multicol", "--fixture", "theil")
        assert code == 0
        for section in ("Coefficients of Variation",
                        "Proportion of ones in the dummy variable",
                        "Correlation matrix's determinant",
                        "Variance Inflation Factors",
                        "Condition Number without intercept",
                        "Condition Number with intercept",
                        "Increase (in percentage)",
                        "Stewart index"):
            assert section in out

    def test_multicol_kg_guidance_message(self, capsys):
        code, out, _ = run(capsys, "multicol", "--fixture", "kg")
        assert "At least one qualitative independent variable is needed" in out

    def test_ols_table(self, capsys):
        code, out, _ = run(capsys, "ols", "--fixture", "theil")
        assert "126.1695" in out
        assert "Residual standard error: 5.676363 on 13 degrees of freedom" in out
        assert "OK: no apparent contradiction" in out

    def test_ols_kg_contradiction_exit(self, capsys):
        code, out, _ = run(capsys, "ols", "--fixture", "kg", "--fail-on-problematic")
        assert code == 1
        assert "PROBLEMATIC: joint F test is significant" in out


class TestExitCodes:
    def test_ok_is_zero(self, capsys):
        code, _, _ = run(capsys, "vif", "--fixture", "theil", "--fail-on-problematic")
        assert code == 0

    def test_problematic_without_flag_is_zero(self, capsys):
        code, _, _ = run(capsys, "rdetr", "--fixture", "kg")
        assert code == 0

    def test_problematic_with_flag_is_one(self, capsys):
        code, _, _ = run(capsys, "rdetr", "--fixture", "kg", "--fail-on-problematic")
        assert code == 1

    def test_usage_error_is_two(self, capsys):
        code, _, err = run(capsys, "ki", "--fixture", "theil", "--no-intercept",
                           "--response", "x")
        assert code == 2
        assert err.startswith("error:")


class TestJsonTextAgreement:
    @pytest.mark.parametrize("command", ["rdetr", "vif", "cn", "cns", "ki", "cv",
                                         "multicol", "ols"])
    def test_same_numbers_in_both_modes(self, capsys, command):
        code, payload, _ = run_json(capsys, command, "--fixture", "kg")
        assert code == 0
        code, text, _ = run(capsys, command, "--fixture", "kg")
        assert code == 0

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    yield from walk(v)
            elif isinstance(node, list):
                for v in node:
                    yield from walk(v)
            elif isinstance(node, float):
                yield node

        for value in walk(payload["result"]):
            assert format(value, ".7g") in text

    def test_json_envelope(self, capsys):
        _, payload, _ = run_json(capsys, "cns", "--fixture", "theil")
        assert payload["schema_version"] == 1
        assert payload["command"] == "cns"
        assert payload["dataset"] == "theil"
        assert isinstance(payload["problematic"], bool)

    def test_ols_json_matches_library(self, capsys, kg_design, kg_y):
        _, payload, _ = run_json(capsys, "ols", "--fixture", "kg")
        fit = ols_fit(kg_y, kg_design)
        assert payload["result"]["beta"] == [float(b) for b in fit.beta]
        assert payload["result"]["f_p"] == fit.f_p

    def test_cns_json_matches_library(self, capsys, theil_design):
        _, payload, _ = run_json(capsys, "cns", "--fixture", "theil")
        rep = cns(theil_design)
        assert payload["result"]["with"] == rep.cn_with
        assert payload["result"]["without"] == rep.cn_without


class TestReproducibility:
    def test_same_seed_byte_identical(self, capsys):
        args = ("perturb", "--fixture", "theil", "--iterations", "30", "--seed", "11")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_deterministic_commands_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "multicol", "--fixture", "kg", "--format", "json")
        code2, out2, _ = run(capsys, "multicol", "--fixture", "kg", "--format", "json")
        assert out1 == out2


class TestPerturbCommand:
    def test_summary_text(self, capsys):
        code, out, _ = run(capsys, "perturb", "--fixture", "theil",
                           "--iterations", "25", "--seed", "5")
        assert code == 0
        assert "achieved_pct" in out and "change_pct" in out
        assert "Perturbed regressors: income, relprice" in out

    def test_pos_override_warns(self, capsys):
        code, _, err = run(capsys, "perturb", "--fixture", "theil",
                           "--iterations", "5", "--seed", "1", "--pos", "1")
        assert code == 0
        assert "overrides the role-derived positions" in err

    def test_pos_matching_roles_does_not_warn(self, capsys):
        code, _, err = run(capsys, "perturb", "--fixture", "theil",
                           "--iterations", "5", "--seed", "1", "--pos", "1,2")
        assert code == 0
        assert err == ""

    def test_dummy_pos_is_an_error(self, capsys):
        code, _, err = run(capsys, "perturb", "--fixture", "theil",
                           "--iterations", "5", "--pos", "3")
        assert code == 2
        assert "quantitative" in err

    @pytest.mark.parametrize("pos", ["0", "3", "1,1"])
    def test_rejected_pos_prints_only_the_error(self, capsys, pos):
        code, out, err = run(capsys, "perturb", "--fixture", "theil",
                             "--iterations", "5", "--pos", pos)
        assert code == 2
        assert out == ""
        assert err.startswith("error: position ") and err.count("\n") == 1

    def test_overflowing_design_prints_only_the_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "perturb", "--fixture", "theil", "--tol", "1e308",
                                 "--iterations", "5", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == "error: matrix entries must be finite\n"
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("flag", ["--tol", "--noise-mean", "--noise-sd"])
    def test_non_finite_setting_is_named(self, capsys, flag):
        code, _, err = run(capsys, "perturb", "--fixture", "theil",
                           "--iterations", "5", flag, "inf")
        assert code == 2
        assert err == f"error: {flag[2:].replace('-', '_')} must be finite\n"

    def test_bad_pos_syntax(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perturb", "--fixture", "theil", "--pos", "1;2"])
        assert exc.value.code == 2

    def test_achieved_mean_in_json(self, capsys):
        _, payload, _ = run_json(capsys, "perturb", "--fixture", "kg",
                                 "--iterations", "20", "--seed", "2")
        assert payload["result"]["achieved_pct"]["mean"] == pytest.approx(1.0, abs=1e-9)
        assert payload["result"]["achieved_pct"]["sd"] <= 1e-12


class TestThresholdOverrides:
    def test_env_file_changes_verdict(self, capsys, tmp_path, monkeypatch):
        override = tmp_path / "thresholds.cfg"
        override.write_text("vif_limit = 1.01\n# comment line\n", encoding="utf-8")
        monkeypatch.setenv(THRESHOLDS_ENV, str(override))
        code, out, _ = run(capsys, "vif", "--fixture", "theil", "--fail-on-problematic")
        assert code == 1
        assert "PROBLEMATIC: VIF(income)=1.033043 > limit 1.01" in out

    def test_unknown_key_rejected(self, capsys, tmp_path, monkeypatch):
        override = tmp_path / "thresholds.cfg"
        override.write_text("bogus = 3\n", encoding="utf-8")
        monkeypatch.setenv(THRESHOLDS_ENV, str(override))
        code, _, err = run(capsys, "vif", "--fixture", "theil")
        assert code == 2
        assert "unknown threshold" in err

    def test_bad_number_rejected(self, capsys, tmp_path, monkeypatch):
        override = tmp_path / "thresholds.cfg"
        override.write_text("vif_limit = ten\n", encoding="utf-8")
        monkeypatch.setenv(THRESHOLDS_ENV, str(override))
        code, _, err = run(capsys, "vif", "--fixture", "theil")
        assert code == 2
        assert "not a number" in err

    def test_non_finite_threshold_rejected(self, capsys, tmp_path, monkeypatch):
        override = tmp_path / "thresholds.cfg"
        override.write_text("vif_limit = nan\n", encoding="utf-8")
        monkeypatch.setenv(THRESHOLDS_ENV, str(override))
        code, out, err = run(capsys, "multicol", "--fixture", "kg", "--fail-on-problematic")
        assert code == 2
        assert out == ""
        assert "threshold vif_limit must be finite" in err

    def test_missing_override_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(THRESHOLDS_ENV, str(tmp_path / "gone.cfg"))
        code, _, err = run(capsys, "vif", "--fixture", "theil")
        assert code == 2
