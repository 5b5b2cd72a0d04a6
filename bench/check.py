"""Independent numpy references for every output the benchmark checks.

Nothing here calls collindiag: condition numbers come from the SVD of
the unit-scaled design, VIFs from auxiliary regressions, coefficients
from np.linalg.lstsq and standard errors from the SVD of the design, and
the perturbation experiment is replayed draw by draw with lstsq.

Tolerances follow the conditioning of the problem: collindiag works on
Gram and correlation matrices, whose conditioning is the square of the
design's, so a result may lose up to eps * kappa**2 of its relative
accuracy.  The margin factor covers accumulation over k columns.
"""

import numpy as np

EPS = float(np.finfo(float).eps)
MARGIN = 16.0

# Published values on the two built-in fixtures (tests/test_acceptance.py
# and README): (value, relative tolerance).
FIXTURE_REFERENCE = {
    "kg": {
        "det_r": (0.037135922766057, 1e-12),
        "vif": ([12.296544, 9.230073, 2.976638], 1e-5),
        "cn_with": (35.88644, 1e-4),
        "cn_without": (30.2987, 1e-4),
        "beta": ([18.7021, 0.3803, 1.4186, 0.5331], 5e-4),
        "change_mean": (2.5, 3.6),
    },
    "theil": {
        "det_r": (0.9680139, 1e-6),
        "vif": ([1.033043, 1.033043], 1e-5),
        "cn_with": (53.39671, 1e-4),
        "cn_without": (24.15423, 1e-4),
        "beta": ([126.1695, 1.0308, -1.2574, -4.5355], 5e-4),
        "change_mean": (3.6, 4.7),
    },
}


def unit_scaled(M: np.ndarray) -> np.ndarray:
    return M / np.linalg.norm(M, axis=0)


def scaled_singular_values(M: np.ndarray) -> np.ndarray:
    return np.linalg.svd(unit_scaled(M), compute_uv=False)


def is_full_rank(X: np.ndarray) -> bool:
    """numpy's matrix_rank rule on the unit-scaled design:
    full rank iff s_min > max(n, k) * eps * s_max."""
    s = scaled_singular_values(X)
    return bool(s[-1] > max(X.shape) * EPS * s[0])


def scaled_cn(M: np.ndarray) -> float:
    s = scaled_singular_values(M)
    return float(s[0] / s[-1])


def aux_vifs(X: np.ndarray, quant_idx) -> np.ndarray:
    """VIF_i = 1 / (1 - R_i^2), regressing quantitative column i on the
    intercept and the other quantitative columns."""
    quant = list(quant_idx)
    out = np.empty(len(quant))
    ones = np.ones((X.shape[0], 1))
    for i, j in enumerate(quant):
        target = X[:, j]
        A = np.hstack([ones, X[:, [q for q in quant if q != j]]])
        coef, *_ = np.linalg.lstsq(A, target, rcond=None)
        resid = target - A @ coef
        centered = target - target.mean()
        out[i] = (centered @ centered) / (resid @ resid)
    return out


def correlation_cn2(X: np.ndarray, quant_idx) -> float:
    """Condition number of the correlation matrix of the quantitative
    columns, from the SVD of the centered block."""
    Q = X[:, list(quant_idx)]
    s = scaled_singular_values(Q - Q.mean(axis=0))
    return float((s[0] / s[-1]) ** 2)


def design_reference(X: np.ndarray, y: np.ndarray, quant_idx) -> dict:
    """Reference measures for a full-rank design with an intercept in
    column 0."""
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    n, k = X.shape
    sigma = float(np.sqrt(resid @ resid / (n - k)))
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    se = sigma * np.sqrt(((vt.T / s) ** 2).sum(axis=1))
    return {
        "cn_with": scaled_cn(X),
        "cn_without": scaled_cn(X[:, 1:]),
        "kappa_r": correlation_cn2(X, quant_idx),
        "vif": aux_vifs(X, quant_idx),
        "beta": beta,
        "resid_norm": float(np.linalg.norm(resid)),
        "col_norms": np.linalg.norm(X, axis=0),
        "se": se,
    }


def rel_mismatch(name: str, got, want, rtol: float) -> list[str]:
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    err = np.abs(got - want) / np.abs(want)
    worst = int(np.argmax(err))
    if not err[worst] <= rtol:
        return [f"{name}[{worst}] = {got[worst]!r}, reference {want[worst]!r} "
                f"(relative error {err[worst]:.3g} > {rtol:.3g})"]
    return []


def check_measures(ref: dict, k: int, cn_with, cn_without, vifs, rounding=0.0) -> list[str]:
    """Condition numbers and VIFs against the reference.  rounding is
    the extra relative error of values printed to fixed digits."""
    cn_tol = 1e-9 + rounding + MARGIN * k * EPS * ref["cn_with"] ** 2
    vif_tol = 1e-9 + rounding + MARGIN * k * EPS * ref["kappa_r"]
    return (rel_mismatch("cn_with", cn_with, ref["cn_with"], cn_tol)
            + rel_mismatch("cn_without", cn_without, ref["cn_without"], cn_tol)
            + rel_mismatch("vif", vifs, ref["vif"], vif_tol))


def check_fit(ref: dict, k: int, beta, se) -> list[str]:
    """Coefficients compared column-scaled, relative to the size of the
    scaled coefficient vector plus the residual, as least-squares
    perturbation bounds do; standard errors element by element."""
    tol = 1e-9 + MARGIN * k * EPS * ref["cn_with"] ** 2
    scale = ref["col_norms"]
    err = np.linalg.norm(scale * (np.asarray(beta) - ref["beta"]))
    size = np.linalg.norm(scale * ref["beta"]) + ref["resid_norm"]
    problems = []
    if not err <= tol * size:
        problems.append(f"beta: scaled error {err:.3g} > {tol:.3g} * {size:.3g}")
    return problems + rel_mismatch("se", se, ref["se"], tol)


def summary(values: np.ndarray) -> dict:
    q2_5, q97_5 = np.percentile(values, [2.5, 97.5])
    return {"mean": float(values.mean()), "sd": float(values.std(ddof=1)),
            "min": float(values.min()), "max": float(values.max()),
            "q2_5": float(q2_5), "q97_5": float(q97_5)}


def perturb_reference(X: np.ndarray, y: np.ndarray, selected, tol: float,
                      iterations: int, noise_mean: float, noise_sd: float,
                      seed: int) -> dict:
    """Replay the perturbation experiment with lstsq: one normal draw of
    length n per selected column per iteration, in column order, from
    one default_rng(seed) stream."""
    rng = np.random.default_rng(seed)
    sel = list(selected)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    base = X[:, sel]
    base_norm = np.linalg.norm(base)
    col_norms = np.linalg.norm(base, axis=0)
    achieved = np.empty(iterations)
    change = np.empty(iterations)
    Xp = X.copy()
    for i in range(iterations):
        for c, j in enumerate(sel):
            r = rng.normal(noise_mean, noise_sd, X.shape[0])
            Xp[:, j] = X[:, j] + tol * r * (col_norms[c] / np.linalg.norm(r))
        beta_p, *_ = np.linalg.lstsq(Xp, y, rcond=None)
        achieved[i] = 100.0 * np.linalg.norm(Xp[:, sel] - base) / base_norm
        change[i] = 100.0 * np.linalg.norm(beta - beta_p) / np.linalg.norm(beta)
    return {"achieved_pct": summary(achieved), "change_pct": summary(change)}


def check_perturb(got: dict, ref: dict, change_band=None) -> list[str]:
    """Achieved perturbation to 1e-9 percentage points (its spread is
    rounding noise); coefficient change to 1e-8 relative."""
    problems = []
    for key in ("mean", "min", "max", "q2_5", "q97_5"):
        a, b = got["achieved_pct"][key], ref["achieved_pct"][key]
        if not abs(a - b) <= 1e-9:
            problems.append(f"achieved_pct.{key} = {a!r}, reference {b!r}")
    if not got["achieved_pct"]["sd"] <= 1e-12:
        problems.append(f"achieved_pct.sd = {got['achieved_pct']['sd']!r} > 1e-12")
    for key in ("mean", "sd", "min", "max", "q2_5", "q97_5"):
        problems += rel_mismatch(f"change_pct.{key}", got["change_pct"][key],
                                 ref["change_pct"][key], 1e-8)
    if change_band is not None:
        lo, hi = change_band
        if not lo <= got["change_pct"]["mean"] <= hi:
            problems.append(f"change_pct.mean {got['change_pct']['mean']!r} outside [{lo}, {hi}]")
    return problems


def parse_text_sections(text: str) -> dict[str, list[str]]:
    """Split the CLI text report into blank-line separated sections,
    keyed by their title line."""
    sections = {}
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        sections[lines[0]] = lines[1:]
    return sections


def text_values(lines: list[str]) -> dict[str, float]:
    """'  label  value' rows of a section; verdict lines are skipped."""
    out = {}
    for line in lines:
        if not line.startswith("  "):
            continue
        label, value = line.split()
        out[label] = float(value)
    return out
