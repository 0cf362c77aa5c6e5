"""Discrete-time survival modeling and the evaluation statistics suite.

The estimation side (hazard curves, concordance, Kaplan-Meier, log-rank,
RMST, bootstrap contrasts, the risk-stratified ``stratified_stats``) is
pure numpy and operates on plain arrays; ``chi2_sf`` is the one-dof tail
of the log-rank statistic alone, in closed form (Mantel, 1966).  Two
constants fix the evaluation protocol: ``RMST_TAU``, the RMST horizon in
months, and ``N_BOOT``, the bootstrap replicates per contrast.
``build_nll_loss`` is the one graph-aware entry point: it attaches the
negative log-likelihoods of one patient or of a batch to an existing
autodiff graph so the training loop can differentiate through them.

Conventions used throughout:

* ``censored`` flags are 1/True when the subject is censored (no event).
* ``events`` flags are 1/True when the event was observed.  Both spellings
  appear because different estimators are traditionally written one way or
  the other; every signature documents which one it takes.
* Time bins for the discrete model are 1-based: ``t_bin`` ranges over
  ``1..n_bins``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Graph, Node, _sigmoid

__all__ = [
    "BootstrapSummary",
    "HazardCurve",
    "KMEstimate",
    "LossReport",
    "LOSS_TERMS",
    "N_BOOT",
    "RMST_TAU",
    "build_nll_loss",
    "bootstrap_stats",
    "chi2_sf",
    "concordance_index",
    "hazards_from_logits",
    "km_estimate",
    "logrank_test",
    "rmst",
    "stratified_stats",
    "total_loss",
]

# Hazards are clamped into this band before any log so likelihoods stay
# finite even for saturated logits.
H_MIN = 1e-7
H_MAX = 1.0 - 1e-7

RMST_TAU = 60.0         # months
N_BOOT = 1000


# --------------------------------------------------------------------- hazards


@dataclass(frozen=True)
class HazardCurve:
    """Per-bin hazard h, survival S_t = prod_{k<=t}(1-h_k), scalar risk."""

    h: np.ndarray
    S: np.ndarray
    risk: float


def hazards_from_logits(logits) -> HazardCurve:
    """Map per-bin logits to a hazard curve.

    h = sigmoid(logits) clamped to [1e-7, 1-1e-7]; S by cumulative product;
    risk = -sum(S) (more negative = longer expected survival, so higher
    values mean higher risk).
    """
    arr = np.asarray(logits, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("hazards_from_logits: empty logits")
    if not np.all(np.isfinite(arr)):
        raise ValueError("hazards_from_logits: non-finite logits")
    h = np.clip(_sigmoid(arr), H_MIN, H_MAX)
    s = np.cumprod(1.0 - h)
    return HazardCurve(h=h, S=s, risk=float(-s.sum()))


def build_nll_loss(graph: Graph, logits: Node, t_bins, censored) -> Node:
    """Attach discrete-time NLLs to ``graph``.

    ``logits`` is one subject's (1, n_bins) node, with scalar ``t_bins``
    and ``censored``, or a batch (B, 1, n_bins) with one bin and one flag
    per subject.  Returns a 0-d node, or a (B,) node, of negative
    log-likelihoods under the hazards h = ``hazards_from_logits(logits)``:
    -log S_t when censored at bin t, -log S_{t-1} - log h_t for an event
    at bin t (S_0 = 1).  Two constant indicator masks pick the terms:
    log(1 - h_k) for the bins before the last one survived, and log h_t
    at an event.
    """
    if logits.value.ndim not in (2, 3) or logits.shape[-2] != 1:
        raise ValueError(
            f"logits node must be (1, n_bins) or (B, 1, n_bins), got {logits.shape}")
    lead = logits.shape[:-2]
    n_t = logits.shape[-1]
    t = np.asarray(t_bins, dtype=np.int64)
    event = ~np.asarray(censored, dtype=bool)
    if t.size != int(np.prod(lead)) or event.size != t.size:
        raise ValueError(f"need one bin and one flag per row of {logits.shape}")
    if np.any(t < 1) or np.any(t > n_t):
        raise ValueError(f"t_bin {t} outside [1, {n_t}]")
    t = t.reshape(lead + (1, 1))
    event = event.reshape(lead + (1, 1))
    k = np.arange(1, n_t + 1)
    survived = k < t + ~event               # bins 1..t-1, and t if censored
    hit = event & (k == t)
    h = graph.clamp(graph.sigmoid(logits), H_MIN, H_MAX)
    log_1mh = graph.log(graph.add(graph.const(np.ones((1, 1))),
                                  graph.scale(h, -1.0)))
    picked = graph.add(graph.mul(log_1mh, graph.const(survived)),
                       graph.mul(graph.log(h), graph.const(hit)))
    return graph.scale(graph.reshape(graph.sum(picked, axis=-1), lead), -1.0)


# ------------------------------------------------------------------ total loss

LOSS_TERMS = ("surv_fused", "surv_hist", "surv_gen",
              "recon_g", "recon_h", "recon_cross")


@dataclass(frozen=True)
class LossReport:
    """Batch-mean loss components and their weighted total."""

    total: float
    surv_fused: float
    surv_hist: float
    surv_gen: float
    recon_g: float
    recon_h: float
    recon_cross: float
    lam: float

    def as_dict(self) -> dict:
        return asdict(self)


def total_loss(per_subject, lam: float) -> LossReport:
    """Combine per-subject loss terms into a batch-mean report.

    ``per_subject`` is a sequence of mappings; missing keys count as 0
    (e.g. reconstruction disabled by config).  The total is
    ``sum(survival means) + lam * sum(reconstruction means)``.
    """
    items = list(per_subject)
    if not items:
        raise ValueError("total_loss: empty batch")
    means = {k: float(np.mean([float(it.get(k, 0.0)) for it in items]))
             for k in LOSS_TERMS}
    surv = means["surv_fused"] + means["surv_hist"] + means["surv_gen"]
    recon = means["recon_g"] + means["recon_h"] + means["recon_cross"]
    return LossReport(total=surv + lam * recon, lam=lam, **means)


# ----------------------------------------------------------------- concordance


def concordance_index(risks, times, censored) -> float:
    """Harrell's C over comparable pairs.

    A pair (i, j) is comparable when time_i < time_j and subject i had an
    event (``censored[i]`` falsy).  Concordant when risk_i > risk_j; risk
    ties earn 0.5.  Raises ValueError when no pair is comparable.
    """
    r = np.asarray(risks, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    ev = ~np.asarray(censored, dtype=bool)
    if not (r.shape == t.shape == ev.shape) or r.ndim != 1:
        raise ValueError("concordance_index: mismatched 1-d inputs")
    comparable = (t[:, None] < t[None, :]) & ev[:, None]
    n_pairs = int(comparable.sum())
    if n_pairs == 0:
        raise ValueError("concordance_index: no comparable pairs")
    gt = int((comparable & (r[:, None] > r[None, :])).sum())
    eq = int((comparable & (r[:, None] == r[None, :])).sum())
    return (gt + 0.5 * eq) / n_pairs


# ---------------------------------------------------------------- Kaplan-Meier


@dataclass(frozen=True)
class KMEstimate:
    """Product-limit estimate on the grid of distinct event times.

    ``survival[i]`` is the curve value just after ``times[i]``; the curve is
    1 before the first event and constant between events.
    """

    times: np.ndarray
    n_risk: np.ndarray
    n_event: np.ndarray
    survival: np.ndarray


def km_estimate(times, events) -> KMEstimate:
    """Kaplan-Meier estimator.

    ``events`` is truthy where the event was observed; censored subjects
    leave the risk set after their recorded time.
    """
    t = np.asarray(times, dtype=np.float64)
    ev = np.asarray(events, dtype=bool)
    if t.size == 0:
        raise ValueError("km_estimate: empty sample")
    if t.shape != ev.shape or t.ndim != 1:
        raise ValueError("km_estimate: mismatched 1-d inputs")
    grid = np.unique(t[ev])
    n_risk = (t[None, :] >= grid[:, None]).sum(axis=1)
    n_event = ((t[None, :] == grid[:, None]) & ev[None, :]).sum(axis=1)
    survival = np.cumprod(1.0 - n_event / n_risk) if grid.size else np.empty(0)
    return KMEstimate(times=grid, n_risk=n_risk, n_event=n_event,
                      survival=survival)


# -------------------------------------------------------------------- log-rank


def chi2_sf(x: float) -> float:
    """Chi-square tail P(X > x) at the log-rank test's one degree of
    freedom: X is a squared standard normal, so it is erfc(sqrt(x / 2))."""
    if x < 0:
        raise ValueError(f"chi2_sf: x={x}")
    return math.erfc(math.sqrt(x / 2.0))


def logrank_test(times_a, events_a, times_b, events_b):
    """One-degree-of-freedom log-rank test between two samples.

    Returns (chi-square statistic, p-value).  Event flags are truthy where
    the event was observed.  Raises ValueError when the pooled variance is
    zero (no usable events).
    """
    ta = np.asarray(times_a, dtype=np.float64)
    tb = np.asarray(times_b, dtype=np.float64)
    ea = np.asarray(events_a, dtype=bool)
    eb = np.asarray(events_b, dtype=bool)
    if ta.size == 0 or tb.size == 0:
        raise ValueError("logrank_test: both groups must be nonempty")
    pooled_t = np.concatenate([ta, tb])
    pooled_e = np.concatenate([ea, eb])
    grid = np.unique(pooled_t[pooled_e])

    n_a = (ta[None, :] >= grid[:, None]).sum(axis=1).astype(np.float64)
    n_all = (pooled_t[None, :] >= grid[:, None]).sum(axis=1).astype(np.float64)
    d_a = ((ta[None, :] == grid[:, None]) & ea[None, :]).sum(axis=1)
    d_all = ((pooled_t[None, :] == grid[:, None]) & pooled_e[None, :]).sum(axis=1)

    frac_a = n_a / n_all
    o_minus_e = float((d_a - d_all * frac_a).sum())
    usable = n_all > 1  # singleton risk sets contribute no variance
    var = float((d_all[usable] * frac_a[usable] * (1.0 - frac_a[usable])
                 * (n_all[usable] - d_all[usable]) / (n_all[usable] - 1.0)).sum())
    if var <= 0.0:
        raise ValueError("logrank_test: zero variance (no usable events)")
    stat = o_minus_e * o_minus_e / var
    return stat, chi2_sf(stat)


# ------------------------------------------------------------------------ RMST


def rmst(km: KMEstimate, tau: float) -> float:
    """Exact area under the KM step function on [0, tau].

    The curve extends flat beyond the last event time.
    """
    if tau <= 0:
        raise ValueError(f"rmst: tau must be positive, got {tau}")
    below = km.times < tau
    edges = np.concatenate([[0.0], km.times[below], [tau]])
    values = np.concatenate([[1.0], km.survival[below]])
    return float(np.sum(np.diff(edges) * values))


# ------------------------------------------------------------------- bootstrap


@dataclass(frozen=True)
class BootstrapSummary:
    """RMST contrast between a high-risk and a low-risk group."""

    delta: float                     # RMST(high) - RMST(low), point estimate
    delta_ci: tuple                  # percentile 95% CI over replicates
    p_value: float                   # two-sided, clipped to [2/B, 1]
    ratio: float                     # RMST(high) / RMST(low), point estimate
    ratio_ci: tuple                  # 95% CI formed on the log scale
    n_boot: int
    n_skipped: int                   # degenerate (event-free) resamples


def _replicate_rmst(t, ev, idx, tau) -> np.ndarray:
    """``rmst(km_estimate(t[i], ev[i]), tau)`` for every row i of the
    (n_boot, n) resample indices ``idx``, bit for bit, and 0.0 for a row
    that drew no event.

    Each row's counts at risk and of events on the group's full grid of
    event times come from its resample counts; a grid time the row did
    not draw an event at gets the factor 1.0 exactly, so the cumulative
    product along the grid is each row's own Kaplan-Meier product.  The
    RMST terms are each row's own, and one ``np.sum`` along the last axis
    of the rows with the same number of terms adds them as ``rmst``
    does."""
    n_boot, n = idx.shape
    counts = np.bincount((idx + n * np.arange(n_boot)[:, None]).ravel(),
                         minlength=n_boot * n).reshape(n_boot, n)
    grid = np.unique(t[ev])
    # integer counts, exact in float64 whatever the summation order
    n_risk = counts @ (t[:, None] >= grid).astype(np.float64)
    n_event = counts @ ((t[:, None] == grid) & ev[:, None]).astype(np.float64)
    hit = n_event > 0
    frac = np.divide(n_event, n_risk, out=np.zeros_like(n_event), where=hit)
    survival = np.cumprod(1.0 - frac, axis=1)
    active = hit & (grid < tau)
    # rows that drew no event keep area 0; the others by term count
    n_terms = np.where(hit.any(axis=1), active.sum(axis=1), -1)
    area = np.zeros(n_boot)
    for m in np.unique(n_terms[n_terms >= 0]):
        rows = np.flatnonzero(n_terms == m)
        cols = np.nonzero(active[rows])[1].reshape(rows.size, m)
        edges = np.empty((rows.size, m + 2))
        edges[:, 0] = 0.0
        edges[:, 1:-1] = grid[cols]
        edges[:, -1] = tau
        values = np.empty((rows.size, m + 1))
        values[:, 0] = 1.0
        values[:, 1:] = survival[rows[:, None], cols]
        area[rows] = np.sum(np.diff(edges, axis=1) * values, axis=1)
    return area


def bootstrap_stats(times_high, events_high, times_low, events_low,
                    tau: float, n_boot: int = N_BOOT, seed: int = 0
                    ) -> BootstrapSummary:
    """Bootstrap the RMST difference and ratio between two groups.

    Each replicate resamples both groups with replacement and recomputes
    delta = RMST(high) - RMST(low) and the high/low ratio.  Replicates where
    either resample has no events (or a zero RMST) are skipped and counted;
    more than 20% skips raises ValueError.

    The draws are one ``rng.integers`` call per group and replicate, high
    group first, as a loop over replicates would make them; the replicates
    are then computed together, each with the bits of its own
    ``rmst(km_estimate(...))``, so the summary is the loop's.
    """
    if n_boot < 1:
        raise ValueError(f"bootstrap_stats: n_boot must be >= 1, got {n_boot}")
    th = np.asarray(times_high, dtype=np.float64)
    tl = np.asarray(times_low, dtype=np.float64)
    eh = np.asarray(events_high, dtype=bool)
    el = np.asarray(events_low, dtype=bool)
    if th.size == 0 or tl.size == 0:
        raise ValueError("bootstrap_stats: both groups must be nonempty")

    r_high = rmst(km_estimate(th, eh), tau)
    r_low = rmst(km_estimate(tl, el), tau)
    if r_low <= 0.0 or r_high <= 0.0:
        raise ValueError("bootstrap_stats: zero RMST in a full group")

    rng = np.random.default_rng(seed)
    draws = [(rng.integers(0, th.size, th.size),
              rng.integers(0, tl.size, tl.size)) for _ in range(n_boot)]
    rh = _replicate_rmst(th, eh, np.stack([ih for ih, _ in draws]), tau)
    rl = _replicate_rmst(tl, el, np.stack([il for _, il in draws]), tau)
    # an event-free resample has area 0.0 and is skipped like a zero RMST
    kept = (rh > 0.0) & (rl > 0.0)
    skipped = n_boot - int(kept.sum())
    if skipped > 0.2 * n_boot:
        raise ValueError(
            f"bootstrap_stats: {skipped}/{n_boot} degenerate resamples")

    d = rh[kept] - rl[kept]
    lr = np.asarray([math.log(a / b)
                     for a, b in zip(rh[kept].tolist(), rl[kept].tolist())])
    lo, hi = np.percentile(d, [2.5, 97.5])
    rlo, rhi = np.exp(np.percentile(lr, [2.5, 97.5]))
    p = 2.0 * min(float((d <= 0).mean()), float((d >= 0).mean()))
    p = min(1.0, max(2.0 / n_boot, p))
    return BootstrapSummary(
        delta=r_high - r_low,
        delta_ci=(float(lo), float(hi)),
        p_value=p,
        ratio=r_high / r_low,
        ratio_ci=(float(rlo), float(rhi)),
        n_boot=n_boot,
        n_skipped=skipped,
    )


def stratified_stats(risks, times, events, threshold: float,
                     tau: float = RMST_TAU, n_boot: int = N_BOOT) -> dict:
    """Two-group survival contrast at a risk threshold (>= goes high).

    A degenerate split or resample gives NaN contrasts; a bad ``n_boot``
    raises ``ValueError``."""
    if n_boot < 1:
        raise ValueError(
            f"stratified_stats: n_boot must be >= 1, got {n_boot}")
    risks = np.asarray(risks, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    high = risks >= threshold
    out = {"n_high": int(high.sum()), "n_low": int((~high).sum())}
    nan_block = {
        "logrank_stat": float("nan"), "logrank_p": float("nan"),
        "rmst_high": float("nan"), "rmst_low": float("nan"),
        "rmst_delta": float("nan"), "rmst_delta_ci": [float("nan")] * 2,
        "rmst_ratio": float("nan"), "rmst_ratio_ci": [float("nan")] * 2,
    }
    if (not 0 < high.sum() < risks.size or events[high].sum() == 0
            or events[~high].sum() == 0):
        out.update(nan_block)
        return out
    stat, p = logrank_test(times[high], events[high],
                           times[~high], events[~high])
    km_high = km_estimate(times[high], events[high])
    km_low = km_estimate(times[~high], events[~high])
    out.update({
        "logrank_stat": float(stat),
        "logrank_p": float(p),
        "rmst_high": float(rmst(km_high, tau)),
        "rmst_low": float(rmst(km_low, tau)),
    })
    try:
        boot = bootstrap_stats(times[high], events[high],
                               times[~high], events[~high],
                               tau=tau, n_boot=n_boot, seed=0)
        out.update({
            "rmst_delta": float(boot.delta),
            "rmst_delta_ci": [float(boot.delta_ci[0]),
                              float(boot.delta_ci[1])],
            "rmst_ratio": float(boot.ratio),
            "rmst_ratio_ci": [float(boot.ratio_ci[0]),
                              float(boot.ratio_ci[1])],
            "bootstrap_p": float(boot.p_value),
            "n_boot": int(boot.n_boot),
            "bootstrap_skipped": int(boot.n_skipped),
        })
    except ValueError:
        out.update({k: nan_block[k] for k in
                    ("rmst_delta", "rmst_delta_ci", "rmst_ratio",
                     "rmst_ratio_ci")})
    return out
