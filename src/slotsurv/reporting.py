"""Cross-fold reporting: per-fold CSV, aggregate JSON summary and a
standalone Kaplan-Meier SVG comparing the two risk groups.

The aggregate states its spread convention explicitly: population standard
deviation over folds (ddof=0), so a single fold reports 0.
"""

from __future__ import annotations

import csv
import os
import xml.etree.ElementTree as ET

import numpy as np

from . import survival as surv_mod
from .data import atomic_write, write_json

SVG_NS = "http://www.w3.org/2000/svg"

FOLD_CSV_COLUMNS = (
    "fold", "n_patients", "missing_genomics", "c_index", "median_risk",
    "logrank_p", "rmst_high", "rmst_low", "rmst_delta", "rmst_ratio",
)


def fold_csv_rows(fold_metrics) -> list:
    rows = []
    for m in fold_metrics:
        rows.append({c: m.get(c) for c in FOLD_CSV_COLUMNS})
    return rows


def write_fold_csv(fold_metrics, path) -> None:
    if not fold_metrics:
        raise ValueError("no fold metrics to write")
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=FOLD_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(fold_csv_rows(fold_metrics))


def mean_std(values) -> tuple:
    """Mean and population standard deviation (ddof=0; one value -> 0)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mean_std of an empty sequence")
    return float(arr.mean()), float(arr.std(ddof=0))


def _pooled_groups(fold_metrics):
    """Patients pooled across folds, split at each fold's own median risk."""
    times, events, high = [], [], []
    for m in fold_metrics:
        risks = np.asarray(m["risks"], dtype=np.float64)
        med = float(m["median_risk"])
        times.extend(float(t) for t in m["times"])
        events.extend(bool(e) for e in m["events"])
        high.extend(bool(r >= med) for r in risks)
    return (np.asarray(times), np.asarray(events, dtype=bool),
            np.asarray(high, dtype=bool))


def summarize(fold_metrics, n_boot: int = surv_mod.N_BOOT) -> dict:
    """Aggregate fold metrics: C-index mean +- population std, plus the
    pooled two-group survival contrast (log-rank, RMST at the folds' tau).
    A repeated fold, or a mix of present and imputed genomics, is an error."""
    if not fold_metrics:
        raise ValueError("no fold metrics to summarize")
    folds = [m["fold"] for m in fold_metrics]
    if len(set(folds)) != len(folds):
        raise ValueError(f"fold numbers repeat: {sorted(folds)}")
    if len({m["missing_genomics"] for m in fold_metrics}) != 1:
        raise ValueError("folds mix present and imputed genomics; report "
                         "each mode from its own runs directory")
    c_mean, c_std = mean_std(m["c_index"] for m in fold_metrics)
    taus = {float(m.get("rmst_tau", surv_mod.RMST_TAU))
            for m in fold_metrics}
    if len(taus) != 1:
        raise ValueError(f"folds disagree on rmst tau: {sorted(taus)}")
    tau = taus.pop()
    times, events, high = _pooled_groups(fold_metrics)
    summary = {
        "n_folds": len(fold_metrics),
        "c_index_mean": c_mean,
        "c_index_std": c_std,
        "std_convention": "population (ddof=0) over folds",
        "rmst_tau": tau,
    }
    stats = surv_mod.stratified_stats(
        np.where(high, 1.0, 0.0), times, events, threshold=0.5,
        tau=tau, n_boot=n_boot)
    summary.update({
        "logrank_p": stats["logrank_p"],
        "rmst_high": stats["rmst_high"],
        "rmst_low": stats["rmst_low"],
        "delta": stats["rmst_delta"],
        "delta_ci": stats["rmst_delta_ci"],
        "ratio": stats["rmst_ratio"],
        "ratio_ci": stats["rmst_ratio_ci"],
        "n_high": stats["n_high"],
        "n_low": stats["n_low"],
    })
    return summary


# ------------------------------------------------------------------ KM drawing


_WIDTH, _HEIGHT = 640, 420
_LEFT, _RIGHT, _TOP, _BOTTOM = 64, 616, 24, 372


def _step_path(km: surv_mod.KMEstimate, t_max: float) -> str:
    """SVG path for a right-continuous survival step curve from (0, 1)."""
    def x(t):
        return _LEFT + (_RIGHT - _LEFT) * (t / t_max if t_max > 0 else 0.0)

    def y(s):
        return _BOTTOM - (_BOTTOM - _TOP) * s

    parts = [f"M {x(0):.2f} {y(1.0):.2f}"]
    s = 1.0
    for t, surv in zip(km.times, km.survival):
        parts.append(f"H {x(min(t, t_max)):.2f}")
        if surv != s:
            parts.append(f"V {y(surv):.2f}")
            s = surv
        if t >= t_max:
            break
    else:
        parts.append(f"H {x(t_max):.2f}")
    return " ".join(parts)


def km_svg(times_high, events_high, times_low, events_low,
           annotations: dict) -> ET.Element:
    """Two-group KM plot as an SVG element tree.

    Exactly two <path> elements (one per group); axes and ticks are <line>
    elements and every annotation is one <text>.
    """
    th = np.asarray(times_high, dtype=np.float64)
    tl = np.asarray(times_low, dtype=np.float64)
    if th.size == 0 or tl.size == 0:
        raise ValueError("both risk groups need at least one subject")
    km_high = surv_mod.km_estimate(th, np.asarray(events_high, dtype=bool))
    km_low = surv_mod.km_estimate(tl, np.asarray(events_low, dtype=bool))
    t_max = float(max(th.max(), tl.max())) * 1.02

    ET.register_namespace("", SVG_NS)
    root = ET.Element(f"{{{SVG_NS}}}svg", {
        "width": str(_WIDTH), "height": str(_HEIGHT),
        "viewBox": f"0 0 {_WIDTH} {_HEIGHT}",
        "font-family": "sans-serif", "font-size": "12",
    })

    def line(x1, y1, x2, y2, color="#444", width="1"):
        ET.SubElement(root, f"{{{SVG_NS}}}line", {
            "x1": f"{x1:.2f}", "y1": f"{y1:.2f}",
            "x2": f"{x2:.2f}", "y2": f"{y2:.2f}",
            "stroke": color, "stroke-width": width,
        })

    def text(x, y, s, color="#222", anchor="start"):
        el = ET.SubElement(root, f"{{{SVG_NS}}}text", {
            "x": f"{x:.2f}", "y": f"{y:.2f}", "fill": color,
            "text-anchor": anchor,
        })
        el.text = s
        return el

    # axes
    line(_LEFT, _TOP, _LEFT, _BOTTOM)
    line(_LEFT, _BOTTOM, _RIGHT, _BOTTOM)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _BOTTOM - (_BOTTOM - _TOP) * frac
        line(_LEFT - 4, y, _LEFT, y)
        text(_LEFT - 8, y + 4, f"{frac:.2f}", anchor="end")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _LEFT + (_RIGHT - _LEFT) * frac
        line(x, _BOTTOM, x, _BOTTOM + 4)
        text(x, _BOTTOM + 18, f"{frac * t_max:.0f}", anchor="middle")
    text((_LEFT + _RIGHT) / 2, _HEIGHT - 6, "months", anchor="middle")
    text(14, (_TOP + _BOTTOM) / 2, "S(t)", anchor="middle")

    for km, color in ((km_high, "#c0392b"), (km_low, "#2471a3")):
        ET.SubElement(root, f"{{{SVG_NS}}}path", {
            "d": _step_path(km, t_max), "fill": "none",
            "stroke": color, "stroke-width": "2",
        })
    text(_RIGHT - 4, _TOP + 14, f"high risk (n={th.size})",
         color="#c0392b", anchor="end")
    text(_RIGHT - 4, _TOP + 30, f"low risk (n={tl.size})",
         color="#2471a3", anchor="end")

    y = _TOP + 54
    for label in annotations_lines(annotations):
        text(_RIGHT - 4, y, label, anchor="end")
        y += 16
    return root


def annotations_lines(annotations: dict) -> list:
    """Stable annotation text: log-rank p, RMST difference, RMST ratio."""
    out = []
    if "logrank_p" in annotations:
        out.append(f"log-rank p = {annotations['logrank_p']:.4g}")
    if "delta" in annotations:
        tau = annotations.get("rmst_tau", surv_mod.RMST_TAU)
        out.append(
            f"ΔRMST(τ={tau:g}) = {annotations['delta']:.2f} months")
    if "ratio" in annotations:
        out.append(f"RMST ratio = {annotations['ratio']:.3f}")
    return out


def write_km_svg(fold_metrics, summary: dict, path) -> None:
    times, events, high = _pooled_groups(fold_metrics)
    if not 0 < high.sum() < high.size:
        raise ValueError("pooled cohort has a single risk group")
    root = km_svg(times[high], events[high], times[~high], events[~high],
                  annotations=summary)
    # the encoding and error handler ElementTree uses when given a path
    with atomic_write(path, "w", encoding="utf-8",
                      errors="xmlcharrefreplace") as fh:
        ET.ElementTree(root).write(fh, encoding="unicode",
                                   xml_declaration=True)


def write_report(fold_metrics, out_dir,
                 n_boot: int = surv_mod.N_BOOT) -> dict:
    """Write folds.csv, summary.json and km.svg; returns the summary."""
    if not fold_metrics:
        raise ValueError("no fold metrics to report")
    os.makedirs(out_dir, exist_ok=True)
    summary = summarize(fold_metrics, n_boot=n_boot)
    write_fold_csv(fold_metrics, os.path.join(out_dir, "folds.csv"))
    write_json(summary, os.path.join(out_dir, "summary.json"))
    write_km_svg(fold_metrics, summary, os.path.join(out_dir, "km.svg"))
    return summary
