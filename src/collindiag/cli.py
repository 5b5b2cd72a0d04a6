"""Command line interface.

One subcommand per diagnostic, plus OLS and the perturbation
experiment.  Data comes from a CSV file with explicit role flags or
from a built-in fixture.  Text output mirrors the labeled-section
layout of classic regression software; json output carries the same
numbers at full double precision.

Exit codes: 0 ok, 1 problematic collinearity found and
--fail-on-problematic set, 2 usage or data error.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

from .dataset import Dataset, design_matrix, load_csv, response_vector, roles_from_flags
from .diagnostics import (DEFAULT_THRESHOLDS, SlmReport, Thresholds, cn_severity, cns,
                          coefficients_of_variation, condition_number, correlation_matrix,
                          multicol, slm, stewart_index, vif)
from .fixtures import FIXTURE_NAMES, fixture
from .ols import ols_fit, significance_contradiction
from .perturb import PerturbConfig, _selected_columns, perturb_n

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1
THRESHOLDS_ENV = "COLLIN_DIAG_THRESHOLDS"

NO_THRESHOLD_NOTE = "NOTE: no established threshold"


def _fmt(v) -> str:
    """Numbers rendered with 7 significant digits for text mode."""
    return format(float(v), ".7g")


# ---------------------------------------------------------------------------
# argument parsing


def _positions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_argument_group("data source")
    source.add_argument("--data", metavar="PATH", help="CSV file to analyze")
    source.add_argument("--fixture", choices=FIXTURE_NAMES,
                        help="use a built-in dataset instead of --data")
    source.add_argument("--response", metavar="LABEL",
                        help="response column (required for ols and perturb)")
    source.add_argument("--dummy", action="append", default=[], metavar="LABEL",
                        help="declare a 0/1 column; repeatable")
    source.add_argument("--quant", action="append", default=[], metavar="LABEL",
                        help="declare a quantitative column; repeatable; when omitted, "
                             "every column not named by --response/--dummy is quantitative")
    source.add_argument("--no-intercept", action="store_true",
                        help="do not synthesize the intercept column")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--fail-on-problematic", action="store_true",
                        help="exit 1 when the diagnostic flags problematic collinearity")

    parser = argparse.ArgumentParser(
        prog="collindiag",
        description="Detect and characterize near multicollinearity in regression designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, (help_text, _) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)

    sub.choices["ols"].add_argument("--alpha", type=float, default=0.05,
                                    help="significance level for the contradiction verdict")

    p_pert = sub.choices["perturb"]
    p_pert.add_argument("--tol", type=float, default=PerturbConfig.tol,
                        help="relative perturbation magnitude")
    p_pert.add_argument("--iterations", type=int, default=PerturbConfig.iterations)
    p_pert.add_argument("--noise-mean", type=float, default=PerturbConfig.noise_mean)
    p_pert.add_argument("--noise-sd", type=float, default=PerturbConfig.noise_sd)
    p_pert.add_argument("--seed", type=int, default=PerturbConfig.seed)
    p_pert.add_argument("--pos", type=_positions, default=None, metavar="i,j,...",
                        help="1-based positions of regressors to perturb, counted "
                             "excluding the intercept; default: all quantitative")
    return parser


# ---------------------------------------------------------------------------
# dataset loading


def _load_dataset(args) -> Dataset:
    if bool(args.data) == bool(args.fixture):
        raise ValueError("exactly one of --data or --fixture is required")
    if args.data:
        if args.command in ("ols", "perturb") and not args.response:
            raise ValueError(f"{args.command} needs a response column: pass --response LABEL")
        return load_csv(args.data, lambda header: roles_from_flags(
            header, args.response, args.dummy, args.quant))
    if args.response or args.dummy or args.quant:
        raise ValueError("role flags (--response/--dummy/--quant) apply only to --data")
    return fixture(args.fixture)


def _thresholds_from_env() -> Thresholds:
    path = os.environ.get(THRESHOLDS_ENV)
    if not path:
        return DEFAULT_THRESHOLDS
    try:
        return Thresholds.from_file(path)
    except FileNotFoundError:
        raise ValueError(f"{THRESHOLDS_ENV} points to a missing file: {path}") from None


# ---------------------------------------------------------------------------
# reports: one JSON conversion, the text layouts, and one builder per report
# returning (result, text_lines, problematic)


def _plain(obj):
    """JSON-ready copy of a report value: dataclasses become dicts in field
    order, tuples lists, numpy values Python ones, and a non-finite float the
    string text mode prints for it ("inf", "-inf" or "nan"), at any depth."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt(obj)
    return obj


def _value(v) -> str:
    return _fmt(v) if v is not None else "undefined (centered variable)"


def _value_rows(pairs) -> list[str]:
    width = max(len(label) for label, _ in pairs)
    return [f"  {label.ljust(width)}  {_value(value)}" for label, value in pairs]


def _table(header, rows) -> list[str]:
    """Header and rows of cells: the first column left-aligned, the others
    right-aligned, each column as wide as its widest cell."""
    table = [header, *rows]
    widths = [max(len(row[j]) for row in table) for j in range(len(header))]
    return ["  " + "  ".join(cell.rjust(w) if j else cell.ljust(w)
                             for j, (cell, w) in enumerate(zip(row, widths)))
            for row in table]


def _cn_verdict(cn: float, th: Thresholds) -> tuple[str, str]:
    severity = cn_severity(cn, th)
    if severity == "severe":
        return f"PROBLEMATIC: CN={_fmt(cn)} > {_fmt(th.cn_severe)}", severity
    if severity == "moderate":
        return (f"MODERATE: CN={_fmt(cn)} in [{_fmt(th.cn_moderate)}, "
                f"{_fmt(th.cn_severe)}]"), severity
    return f"OK: CN={_fmt(cn)} < {_fmt(th.cn_moderate)}", severity


def _corr_result(rep, th: Thresholds):
    result = {
        "labels": rep.labels,
        "correlation_matrix": rep.r,
        "det_r": rep.det_r,
        "det_threshold": rep.det_threshold,
        "pairwise_threshold": th.pairwise_corr,
        "flagged_pairs": [{"a": a, "b": b, "r": r} for a, b, r in rep.flagged_pairs],
        "problematic_pairs": rep.problematic_pairs,
        "problematic_det": rep.problematic_det,
    }
    matrix = [[label, *map(_fmt, row)] for label, row in zip(rep.labels, rep.r)]
    problems = [f"PROBLEMATIC: |r({a}, {b})|={_fmt(abs(r))} > threshold {_fmt(th.pairwise_corr)}"
                for a, b, r in rep.flagged_pairs]
    lines = ["Correlation matrix", *_table(["", *rep.labels], matrix),
             "", "Correlation matrix's determinant", f"  {_fmt(rep.det_r)}",
             *(problems or [f"OK: no pairwise |r| above threshold {_fmt(th.pairwise_corr)}"])]
    lines.append(f"PROBLEMATIC: det(R)={_fmt(rep.det_r)} < threshold {_fmt(rep.det_threshold)}"
                 if rep.problematic_det else
                 f"OK: det(R)={_fmt(rep.det_r)} >= threshold {_fmt(rep.det_threshold)}")
    return result, lines, rep.problematic


def _vif_result(vifs, th: Thresholds):
    flagged = [(label, v) for label, v in vifs if v > th.vif_limit]
    result = {"vif": [{"label": label, "value": v} for label, v in vifs],
              "limit": th.vif_limit, "problematic": bool(flagged)}
    problems = [f"PROBLEMATIC: VIF({label})={_fmt(v)} > limit {_fmt(th.vif_limit)}"
                for label, v in flagged]
    lines = ["Variance Inflation Factors", *_value_rows(vifs),
             *(problems or [f"OK: no VIF above limit {_fmt(th.vif_limit)}"])]
    return result, lines, bool(flagged)


def _cn_result(value: float, th: Thresholds):
    verdict, severity = _cn_verdict(value, th)
    return ({"cn": value, "severity": severity},
            ["Condition Number", f"  {_fmt(value)}", verdict], severity == "severe")


def _cns_result(rep, th: Thresholds):
    verdict, severity = _cn_verdict(rep.cn_with, th)
    result = {"without": rep.cn_without, "with": rep.cn_with,
              "increase_pct": rep.increase_pct, "severity": severity}
    lines = ["Condition Number without intercept", f"  {_fmt(rep.cn_without)}",
             "", "Condition Number with intercept", f"  {_fmt(rep.cn_with)}",
             "", "Increase (in percentage)", f"  {_fmt(rep.increase_pct)}", verdict]
    return result, lines, severity == "severe"


def _stewart_result(rep):
    lines = ["Stewart index", *_value_rows(list(zip(rep.labels, rep.k2)))]
    if rep.essential_pct is not None:
        quant = rep.labels[-len(rep.essential_pct):]
        lines += ["", "Proportion of essential collinearity (in percentage)"]
        lines += _value_rows(list(zip(quant, rep.essential_pct)))
        lines += ["", "Proportion of non-essential collinearity (in percentage)"]
        lines += _value_rows(list(zip(quant, rep.nonessential_pct)))
    lines.append(f"{NO_THRESHOLD_NOTE} for the Stewart index")
    return rep, lines, False


def _cv_result(entries, th: Thresholds):
    flagged = [(label, v) for label, v in entries if v is not None and v < th.cv_limit]
    result = {"cv": [{"label": label, "value": v, "below_limit": (label, v) in flagged}
                     for label, v in entries],
              "limit": th.cv_limit, "problematic": bool(flagged)}
    problems = [f"PROBLEMATIC: CV({label})={_fmt(v)} < threshold {_fmt(th.cv_limit)} "
                f"(nonessential collinearity)" for label, v in flagged]
    lines = ["Coefficients of Variation", *_value_rows(entries),
             *(problems or [f"OK: no CV below threshold {_fmt(th.cv_limit)}"])]
    return result, lines, bool(flagged)


def _dummy_pct_result(entries):
    result = [{"label": label, "ones_pct": v} for label, v in entries]
    lines = ["Proportion of ones in the dummy variable", *_value_rows(entries)]
    lines += [f"WARNING: dummy {label} is degenerate "
              f"({'all ones duplicates the intercept' if v else 'all zeros'})"
              for label, v in entries if v in (0.0, 100.0)]
    return result, lines, False


def _slm_result(rep: SlmReport, th: Thresholds):
    cv_low = rep.cv is not None and rep.cv < th.cv_limit
    if rep.is_dummy:
        result = {"kind": "dummy", "label": rep.label, "ones_pct": rep.ones_pct, "cn": rep.cn}
        lines = ["Proportion of ones in the dummy variable", f"  {_fmt(rep.ones_pct)}",
                 "", "Condition Number", f"  {_fmt(rep.cn)}"]
    else:
        result = {"kind": "quantitative", "label": rep.label, "cv": rep.cv,
                  "vif": rep.vif, "cn": rep.cn, "k2": rep.k2}
        lines = ["Coefficient of Variation", f"  {_value(rep.cv)}",
                 "", "Variance Inflation Factor", f"  {_fmt(rep.vif)}",
                 "", "Condition Number", f"  {_fmt(rep.cn)}",
                 "", "Stewart index", f"  {_fmt(rep.k2[0])} {_fmt(rep.k2[1])}"]
        if cv_low:
            lines.append(f"PROBLEMATIC: CV={_fmt(rep.cv)} < threshold {_fmt(th.cv_limit)} "
                         f"(nonessential collinearity)")
    verdict, severity = _cn_verdict(rep.cn, th)
    result["severity"] = severity
    return result, [*lines, verdict], cv_low or severity == "severe"


def _multicol_result(report, th: Thresholds):
    if isinstance(report, SlmReport):
        result, lines, problematic = _slm_result(report, th)
        return {"slm": result}, lines, problematic

    # (key, title printed over the note when absent, value, builder); the
    # VIF section is absent exactly when the correlation section is
    sections = (
        ("cv", "Coefficients of Variation", report.cv, lambda v: _cv_result(v, th)),
        ("dummy_pct", "Proportion of ones in the dummy variable", report.dummy_pct,
         _dummy_pct_result),
        ("correlation", "Correlation matrix", report.correlation, lambda v: _corr_result(v, th)),
        ("vif", None, report.vifs, lambda v: _vif_result(v, th)),
        ("cn", "Condition Number", report.cn, lambda v: _cns_result(v, th)),
        ("stewart", "Stewart index", report.stewart, _stewart_result),
    )
    result: dict = {"notes": report.notes}
    lines: list[str] = []
    problematic = False
    for key, title, value, build in sections:
        if value is None:
            result[key] = None
            if title is None:
                continue
            section_lines = [title, f"  {report.notes[key]}"]
        else:
            result[key], section_lines, flag = build(value)
            problematic = problematic or flag
        lines += ([""] if lines else []) + section_lines
    return result, lines, problematic


def _ols_result(y, X, alpha: float):
    fit = ols_fit(y, X)
    verdict = significance_contradiction(fit, alpha)
    result = {name: getattr(fit, name) for name in (
        "labels", "beta", "se", "t", "p", "sigma", "df_resid", "r2", "adj_r2", "f_stat", "f_p")}
    result["contradiction"] = verdict
    lines = ["Coefficients", *_table(["", "Estimate", "Std. Error", "t value", "Pr(>|t|)"],
                                     [[label, *map(_fmt, row)] for label, *row in
                                      zip(fit.labels, fit.beta, fit.se, fit.t, fit.p)]),
             "", f"Residual standard error: {_fmt(fit.sigma)} on {fit.df_resid} degrees of freedom",
             f"Multiple R-squared: {_fmt(fit.r2)}, Adjusted R-squared: {_fmt(fit.adj_r2)}",
             f"F-statistic: {_fmt(fit.f_stat)} on {len(fit.labels) - 1} and {fit.df_resid} DF, "
             f"p-value: {_fmt(fit.f_p)}",
             f"PROBLEMATIC: {verdict.description}" if verdict.contradiction
             else f"OK: {verdict.description} at alpha={verdict.alpha:g}"]
    return result, lines, verdict.contradiction


def _perturb_result(y, X, args):
    settings = ("tol", "iterations", "noise_mean", "noise_sd", "seed")
    cfg = PerturbConfig(positions=args.pos or (),
                        **{name: getattr(args, name) for name in settings})
    res = perturb_n(y, X, cfg)
    derived = tuple(pos for pos, idx in enumerate(X.non_intercept_idx, start=1)
                    if idx in X.quantitative_idx)
    if args.pos is not None and tuple(sorted(args.pos)) != derived:
        print(f"note: --pos {','.join(map(str, args.pos))} overrides the role-derived "
              f"positions {','.join(map(str, derived))}", file=sys.stderr)
    perturbed = tuple(X.labels[i] for i in _selected_columns(X, cfg))
    summaries = {"achieved_pct": res.achieved_summary, "change_pct": res.change_summary}
    result = {name: getattr(cfg, name) for name in settings}
    result.update(perturbed=perturbed, **summaries)
    lines = [f"Perturbation experiment: tol={cfg.tol:g}, iterations={cfg.iterations}, "
             f"noise ~ Normal({cfg.noise_mean:g}, {cfg.noise_sd:g})"
             + (f", seed={cfg.seed}" if cfg.seed is not None else ""),
             f"Perturbed regressors: {', '.join(perturbed)}", "",
             *_table(["", "mean", "sd", "min", "max", "q2.5", "q97.5"],
                     [[name, *map(_fmt, dataclasses.astuple(s))] for name, s in summaries.items()]),
             f"{NO_THRESHOLD_NOTE} for the coefficient change"]
    return result, lines, False


# name -> (help, handler (X, ds, args, th) -> (result, text_lines, problematic)).
# Handlers look library functions up by module-global name at call time, so
# wrappers set on this module's attributes (bench/spans.py traces so) see every call.

COMMANDS = {
    "rdetr": ("correlation matrix of quantitative regressors and det(R)",
              lambda X, ds, args, th: _corr_result(correlation_matrix(X, th), th)),
    "vif": ("variance inflation factors",
            lambda X, ds, args, th: _vif_result(vif(X), th)),
    "cn": ("condition number of the design",
           lambda X, ds, args, th: _cn_result(condition_number(X), th)),
    "cns": ("condition numbers with and without intercept",
            lambda X, ds, args, th: _cns_result(cns(X), th)),
    "ki": ("Stewart indexes and the essential/nonessential split",
           lambda X, ds, args, th: _stewart_result(stewart_index(X))),
    "cv": ("coefficients of variation of quantitative regressors",
           lambda X, ds, args, th: _cv_result(coefficients_of_variation(X), th)),
    "slm": ("simple linear model diagnostics (intercept + one regressor)",
            lambda X, ds, args, th: _slm_result(slm(X), th)),
    "multicol": ("every applicable measure at once",
                 lambda X, ds, args, th: _multicol_result(multicol(X, th), th)),
    "ols": ("OLS fit with inference summary",
            lambda X, ds, args, th: _ols_result(response_vector(ds), X, args.alpha)),
    "perturb": ("Monte Carlo perturbation of quantitative regressors",
                lambda X, ds, args, th: _perturb_result(response_vector(ds), X, args)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        th = _thresholds_from_env()
        ds = _load_dataset(args)
        X = design_matrix(ds, intercept=not args.no_intercept)
        result, lines, problematic = COMMANDS[args.command][1](X, ds, args, th)
    except (ValueError, OSError) as exc:  # usage and data errors, unreadable files
        reason = f"{exc.filename}: {exc.strerror}" if getattr(exc, "filename", None) else exc
        print(f"error: {reason}", file=sys.stderr)
        return 2

    try:
        if args.format == "json":
            envelope = {"schema_version": SCHEMA_VERSION, "command": args.command,
                        "dataset": ds.name, "problematic": problematic, "result": result}
            print(json.dumps(_plain(envelope), indent=2, allow_nan=False))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early; later flushes go to os.devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return 1 if problematic and args.fail_on_problematic else 0


if __name__ == "__main__":
    sys.exit(main())
