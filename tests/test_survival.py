"""Statistics suite: hazard curves, losses, C-index, KM, log-rank, RMST,
bootstrap.  Derived values are checked against independently coded oracles
kept inside this file."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slotsurv.autodiff import Graph
from slotsurv.survival import (
    BootstrapSummary,
    HazardCurve,
    bootstrap_stats,
    build_nll_loss,
    chi2_sf,
    concordance_index,
    hazards_from_logits,
    km_estimate,
    logrank_test,
    rmst,
    stratified_stats,
    total_loss,
)

from fd import finite_diff_check
from oracles import bootstrap_loop, nll_loss

# ------------------------------------------------------------- hazard curves


def test_hazard_curve_golden_all_zero_logits():
    curve = hazards_from_logits([0.0, 0.0, 0.0, 0.0])
    assert np.allclose(curve.h, 0.5)
    assert np.array_equal(curve.S, [0.5, 0.25, 0.125, 0.0625])
    assert curve.risk == -0.9375


def test_hazard_curve_no_hazard_limit():
    curve = hazards_from_logits([-50.0] * 6)
    assert np.all(curve.S > 1.0 - 1e-5)
    assert curve.risk == pytest.approx(-6.0, abs=1e-4)


def test_hazard_curve_rejects_bad_input():
    with pytest.raises(ValueError):
        hazards_from_logits([])
    with pytest.raises(ValueError):
        hazards_from_logits([0.0, np.inf])


def test_survival_curve_monotone_for_random_logits():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n_t = int(rng.integers(1, 13))
        curve = hazards_from_logits(rng.normal(0.0, 3.0, size=n_t))
        assert np.all(np.diff(curve.S) <= 0.0)
        assert np.all((curve.S >= 0.0) & (curve.S <= 1.0))
        assert np.all((curve.h > 0.0) & (curve.h < 1.0))


# ----------------------------------------------------------------- NLL (numpy)


def test_nll_censored_golden():
    curve = hazards_from_logits([0.0, 0.0])
    assert nll_loss(curve, 1, censored=True) == pytest.approx(math.log(2.0),
                                                              abs=1e-12)


def test_nll_event_golden():
    curve = hazards_from_logits([0.0, 0.0, 0.0])
    # -log S_1 - log h_2 = -log 0.5 - log 0.5
    assert nll_loss(curve, 2, censored=False) == pytest.approx(
        2.0 * math.log(2.0), abs=1e-12)


def test_nll_certain_event_is_almost_free():
    curve = hazards_from_logits([40.0, 0.0])
    assert nll_loss(curve, 1, censored=False) == pytest.approx(0.0, abs=1e-6)


def test_nll_rejects_out_of_range_bin():
    curve = hazards_from_logits([0.0, 0.0])
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            nll_loss(curve, bad, censored=True)


def _nll_oracle(logits, t_bin, censored):
    # direct per-step products, coded independently of the module
    h = [min(max(1.0 / (1.0 + math.exp(-x)), 1e-7), 1.0 - 1e-7)
         for x in logits]
    if censored:
        s = 1.0
        for k in range(t_bin):
            s *= 1.0 - h[k]
        return -math.log(s)
    s_prev = 1.0
    for k in range(t_bin - 1):
        s_prev *= 1.0 - h[k]
    return -math.log(s_prev) - math.log(h[t_bin - 1])


def test_nll_matches_direct_formula_on_random_cases():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n_t = int(rng.integers(1, 9))
        logits = rng.normal(0.0, 2.0, size=n_t)
        t_bin = int(rng.integers(1, n_t + 1))
        censored = bool(rng.random() < 0.4)
        got = nll_loss(hazards_from_logits(logits), t_bin, censored)
        want = _nll_oracle(logits, t_bin, censored)
        assert got == pytest.approx(want, abs=1e-9)
        assert got >= 0.0


@given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=10),
       st.data())
@settings(max_examples=100, deadline=None)
def test_nll_nonnegative(logits, data):
    t_bin = data.draw(st.integers(1, len(logits)))
    censored = data.draw(st.booleans())
    assert nll_loss(hazards_from_logits(logits), t_bin, censored) >= 0.0


# ----------------------------------------------------------------- NLL (graph)


def test_graph_nll_golden_values():
    for t_bin, censored, want in [
        (2, True, -math.log(0.25)),
        (3, False, -math.log(0.25) - math.log(0.5)),
        (1, False, -math.log(0.5)),
    ]:
        g = Graph(dtype=np.float64)
        logits = g.input("logits", np.zeros((1, 3)))
        loss = build_nll_loss(g, logits, t_bin, censored)
        assert loss.value.item() == pytest.approx(want, abs=1e-12)


def test_graph_nll_matches_numpy_reference():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n_t = int(rng.integers(1, 9))
        vec = rng.normal(0.0, 2.0, size=n_t)
        t_bin = int(rng.integers(1, n_t + 1))
        censored = bool(rng.random() < 0.4)
        g = Graph(dtype=np.float64)
        logits = g.input("logits", vec.reshape(1, -1))
        loss = build_nll_loss(g, logits, t_bin, censored)
        want = nll_loss(hazards_from_logits(vec), t_bin, censored)
        assert loss.value.item() == pytest.approx(want, abs=1e-9)


def test_graph_nll_gradients_match_finite_differences():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n_t = int(rng.integers(1, 7))
        vec = rng.normal(0.0, 1.5, size=n_t)
        t_bin = int(rng.integers(1, n_t + 1))
        censored = bool(rng.random() < 0.4)
        g = Graph(dtype=np.float64)
        logits = g.input("logits", vec.reshape(1, -1))
        loss = build_nll_loss(g, logits, t_bin, censored)
        assert finite_diff_check(g, loss) < 1e-6


def test_graph_nll_rejects_bad_shapes_and_bins():
    g = Graph(dtype=np.float64)
    logits = g.input("logits", np.zeros((1, 4)))
    with pytest.raises(ValueError):
        build_nll_loss(g, logits, 5, censored=True)
    g2 = Graph(dtype=np.float64)
    two_rows = g2.input("x", np.zeros((2, 4)))
    with pytest.raises(ValueError):
        build_nll_loss(g2, two_rows, 1, censored=True)


# ------------------------------------------------------------------ total loss


def test_total_loss_accounting_identity():
    rng = np.random.default_rng(47)
    batch = [{k: float(rng.uniform(0.0, 2.0))
              for k in ("surv_fused", "surv_hist", "surv_gen",
                        "recon_g", "recon_h", "recon_cross")}
             for _ in range(9)]
    lam = 0.1
    report = total_loss(batch, lam=lam)
    surv = sum(sum(it[k] for it in batch) / len(batch)
               for k in ("surv_fused", "surv_hist", "surv_gen"))
    recon = sum(sum(it[k] for it in batch) / len(batch)
                for k in ("recon_g", "recon_h", "recon_cross"))
    assert report.total == pytest.approx(surv + lam * recon, abs=1e-9)
    parts = (report.surv_fused + report.surv_hist + report.surv_gen
             + report.lam * (report.recon_g + report.recon_h
                             + report.recon_cross))
    assert report.total == pytest.approx(parts, abs=1e-6)


def test_total_loss_lambda_zero_is_survival_only():
    batch = [{"surv_fused": 1.0, "surv_hist": 2.0, "surv_gen": 3.0,
              "recon_g": 9.0, "recon_h": 9.0, "recon_cross": 9.0}]
    assert total_loss(batch, lam=0.0).total == pytest.approx(6.0)


def test_total_loss_missing_terms_count_as_zero():
    report = total_loss([{"surv_fused": 1.5}], lam=0.7)
    assert report.total == pytest.approx(1.5)
    assert report.recon_cross == 0.0


def test_total_loss_empty_batch_rejected():
    with pytest.raises(ValueError):
        total_loss([], lam=0.1)


# ----------------------------------------------------------------- concordance


def test_concordance_goldens():
    assert concordance_index([3, 2, 1], [1, 2, 3], [0, 0, 0]) == 1.0
    assert concordance_index([2, 3, 1], [1, 2, 3], [0, 0, 0]) == pytest.approx(2 / 3)
    # second subject censored: only the (1 -> 2) pair is comparable
    assert concordance_index([1, 2], [1, 2], [0, 1]) == 0.0


def test_concordance_ties_get_half_credit():
    assert concordance_index([5, 5], [1, 2], [0, 0]) == 0.5


def test_concordance_rejects_when_nothing_comparable():
    with pytest.raises(ValueError):
        concordance_index([1, 2], [1, 2], [1, 1])   # all censored
    with pytest.raises(ValueError):
        concordance_index([1, 2], [3, 3], [0, 0])   # tied times


def _cindex_oracle(risks, times, censored):
    num, den = 0.0, 0
    n = len(times)
    for i in range(n):
        if censored[i]:
            continue
        for j in range(n):
            if times[i] < times[j]:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    if den == 0:
        raise ValueError("no comparable pairs")
    return num / den


def test_concordance_matches_pairwise_oracle():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        times = rng.integers(1, 25, size=n).astype(float)
        censored = rng.random(n) < 0.3
        risks = np.round(rng.normal(size=n), 1)   # rounded to force ties
        try:
            want = _cindex_oracle(risks, times, censored)
        except ValueError:
            with pytest.raises(ValueError):
                concordance_index(risks, times, censored)
            continue
        got = concordance_index(risks, times, censored)
        assert got == pytest.approx(want, abs=1e-12)


def test_concordance_negation_sums_to_one_without_ties():
    rng = np.random.default_rng(59)
    for _ in range(200):
        n = int(rng.integers(3, 30))
        times = rng.integers(1, 40, size=n).astype(float)
        censored = rng.random(n) < 0.3
        risks = rng.normal(size=n)   # continuous: ties have probability 0
        try:
            c_pos = concordance_index(risks, times, censored)
        except ValueError:
            continue
        c_neg = concordance_index(-risks, times, censored)
        assert c_pos + c_neg == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- Kaplan-Meier


def test_km_golden_all_events():
    km = km_estimate([1.0, 2.0, 3.0], [1, 1, 1])
    assert np.array_equal(km.times, [1.0, 2.0, 3.0])
    assert np.array_equal(km.n_risk, [3, 2, 1])
    assert np.allclose(km.survival, [2 / 3, 1 / 3, 0.0], atol=1e-15)


def test_km_golden_with_censoring():
    km = km_estimate([1.0, 2.0, 3.0], [1, 0, 1])
    assert np.array_equal(km.times, [1.0, 3.0])
    # the censored subject leaves the risk set before t=3
    assert np.allclose(km.survival, [2 / 3, 0.0], atol=1e-15)
    assert np.array_equal(km.n_risk, [3, 1])


def test_km_no_events_stays_at_one():
    km = km_estimate([4.0, 7.0], [0, 0])
    assert km.times.size == 0
    assert rmst(km, 60.0) == 60.0


def test_km_empty_sample_rejected():
    with pytest.raises(ValueError):
        km_estimate([], [])


def test_km_equals_empirical_survival_without_censoring():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 41))
        times = rng.integers(1, 20, size=n).astype(float)
        km = km_estimate(times, np.ones(n, dtype=bool))
        for t_i, s_i in zip(km.times, km.survival):
            assert s_i == pytest.approx((times > t_i).mean(), abs=1e-12)


# -------------------------------------------------------------------- log-rank


def _logrank_oracle(ta, ea, tb, eb):
    grid = sorted({t for t, e in zip(list(ta) + list(tb),
                                     list(ea) + list(eb)) if e})
    o_minus_e, var = 0.0, 0.0
    for t in grid:
        n_a = sum(1 for x in ta if x >= t)
        n_b = sum(1 for x in tb if x >= t)
        d_a = sum(1 for x, e in zip(ta, ea) if x == t and e)
        d_b = sum(1 for x, e in zip(tb, eb) if x == t and e)
        n, d = n_a + n_b, d_a + d_b
        o_minus_e += d_a - d * n_a / n
        if n > 1:
            var += d * (n_a / n) * (n_b / n) * (n - d) / (n - 1)
    return o_minus_e * o_minus_e / var


def test_logrank_identical_groups():
    times, events = [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1]
    stat, p = logrank_test(times, events, times, events)
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_logrank_matches_brute_force_oracle():
    ta, ea = [1.0, 2.0, 3.0], [1, 1, 1]
    tb, eb = [4.0, 5.0, 6.0], [1, 1, 1]
    stat, p = logrank_test(ta, ea, tb, eb)
    assert stat == pytest.approx(_logrank_oracle(ta, ea, tb, eb), abs=1e-10)
    assert 0.0 < p < 1.0


def test_logrank_matches_oracle_on_random_groups():
    rng = np.random.default_rng(67)
    for _ in range(300):
        na, nb = int(rng.integers(6, 25)), int(rng.integers(6, 25))
        ta = rng.integers(1, 15, size=na).astype(float)
        tb = rng.integers(1, 15, size=nb).astype(float)
        ea = rng.random(na) < 0.7
        eb = rng.random(nb) < 0.7
        ea[:3] = True   # keep the variance strictly positive
        eb[:3] = True
        stat, _ = logrank_test(ta, ea, tb, eb)
        want = _logrank_oracle(ta, ea, tb, eb)
        assert stat == pytest.approx(want, rel=1e-10, abs=1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_logrank_invariant_under_label_swap(seed):
    rng = np.random.default_rng(seed)
    ta = rng.integers(1, 12, size=10).astype(float)
    tb = rng.integers(1, 12, size=12).astype(float)
    ea = np.ones(10, dtype=bool)
    eb = rng.random(12) < 0.8
    eb[0] = True
    stat_ab, p_ab = logrank_test(ta, ea, tb, eb)
    stat_ba, p_ba = logrank_test(tb, eb, ta, ea)
    assert stat_ab == pytest.approx(stat_ba, rel=1e-12, abs=1e-12)
    assert p_ab == pytest.approx(p_ba, rel=1e-12, abs=1e-12)


def test_logrank_zero_variance_rejected():
    with pytest.raises(ValueError):
        logrank_test([1.0, 2.0], [0, 0], [3.0, 4.0], [0, 0])
    with pytest.raises(ValueError):
        logrank_test([], [], [1.0], [1])


# ------------------------------------------------------------------ chi-square


def test_chi2_textbook_critical_values():
    """At one degree of freedom the tail at z**2 is the two-sided normal
    tail at z; these z are its 0.05, 0.01 and 0.001 critical values to
    double precision."""
    for z, alpha in ((1.959963984540054, 0.05), (2.5758293035489004, 0.01),
                     (3.2905267314918945, 0.001)):
        assert chi2_sf(z * z) == pytest.approx(alpha, rel=1e-14, abs=0.0)
    assert chi2_sf(0.0) == 1.0


def test_chi2_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chi2_sf(-1.0)


# ------------------------------------------------------------------------ RMST


def test_rmst_goldens():
    km_full = km_estimate([99.0], [0])          # no events: S == 1
    assert rmst(km_full, 60.0) == 60.0
    km3 = km_estimate([1.0, 2.0, 3.0], [1, 1, 1])
    assert rmst(km3, 3.0) == pytest.approx(2.0, abs=1e-12)
    assert rmst(km3, 0.5) == 0.5                # horizon before first event
    km_two = km_estimate([1.0, 3.0], [1, 1])
    assert rmst(km_two, 4.0) == pytest.approx(2.0, abs=1e-12)


def test_rmst_rejects_nonpositive_horizon():
    km = km_estimate([1.0], [1])
    with pytest.raises(ValueError):
        rmst(km, 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_rmst_bounded_and_monotone_in_horizon(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    times = rng.integers(1, 50, size=n).astype(float)
    events = rng.random(n) < 0.7
    km = km_estimate(times, events)
    taus = np.linspace(0.5, 80.0, 12)
    areas = [rmst(km, tau) for tau in taus]
    for tau, area in zip(taus, areas):
        assert area <= tau + 1e-12
    assert np.all(np.diff(areas) >= -1e-12)


# ------------------------------------------------------------------- bootstrap


def test_bootstrap_identical_groups_straddle():
    times = np.array([2.0, 4.0, 6.0, 8.0, 10.0, 12.0] * 2)
    events = np.ones(times.size, dtype=bool)
    out = bootstrap_stats(times, events, times, events, tau=12.0,
                          n_boot=1000, seed=5)
    assert out.delta == pytest.approx(0.0, abs=1e-12)
    assert out.delta_ci[0] <= 0.0 <= out.delta_ci[1]
    assert out.ratio_ci[0] <= 1.0 <= out.ratio_ci[1]
    assert out.p_value > 0.2
    assert out.n_skipped == 0


def test_bootstrap_is_deterministic_for_a_seed():
    rng = np.random.default_rng(71)
    th = rng.uniform(30.0, 60.0, size=15)
    tl = rng.uniform(5.0, 20.0, size=15)
    ev = np.ones(15, dtype=bool)
    a = bootstrap_stats(th, ev, tl, ev, tau=60.0, n_boot=400, seed=9)
    b = bootstrap_stats(th, ev, tl, ev, tau=60.0, n_boot=400, seed=9)
    assert a == b
    c = bootstrap_stats(th, ev, tl, ev, tau=60.0, n_boot=400, seed=10)
    assert a.delta_ci != c.delta_ci


def test_bootstrap_separated_groups_sign_and_floor():
    rng = np.random.default_rng(73)
    th = rng.uniform(40.0, 60.0, size=20)
    tl = rng.uniform(5.0, 15.0, size=20)
    ev = np.ones(20, dtype=bool)
    out = bootstrap_stats(th, ev, tl, ev, tau=60.0, n_boot=1000, seed=3)
    assert out.delta > 0.0                      # high minus low
    assert out.delta_ci[0] > 0.0
    assert out.ratio > 1.0
    assert out.ratio_ci[0] > 1.0
    assert out.p_value == pytest.approx(2.0 / 1000)


def test_bootstrap_counts_rare_event_skips():
    th = np.linspace(30.0, 60.0, 10)
    eh = np.ones(10, dtype=bool)
    tl = np.linspace(5.0, 15.0, 10)
    el = np.zeros(10, dtype=bool)
    el[:2] = True    # only two events: some resamples miss both
    out = bootstrap_stats(th, eh, tl, el, tau=60.0, n_boot=1000, seed=17)
    assert 0 < out.n_skipped < 200


def test_bootstrap_rejects_mostly_degenerate_resamples():
    th = np.linspace(30.0, 60.0, 10)
    eh = np.ones(10, dtype=bool)
    tl = np.linspace(5.0, 15.0, 10)
    el = np.zeros(10, dtype=bool)
    el[0] = True     # ~35% of resamples miss the single event
    with pytest.raises(ValueError):
        bootstrap_stats(th, eh, tl, el, tau=60.0, n_boot=1000, seed=19)


def test_bootstrap_rejects_empty_groups():
    with pytest.raises(ValueError):
        bootstrap_stats([], [], [1.0], [1], tau=10.0, n_boot=10, seed=0)


def test_stratified_stats_rejects_a_bad_replicate_count():
    """n_boot < 1 is an error, not a NaN contrast; degenerate resamples
    still give NaN."""
    risks = np.linspace(0.0, 1.0, 20)
    times = np.linspace(90.0, 5.0, 20)
    events = np.ones(20, dtype=bool)
    for n_boot in (0, -1):
        with pytest.raises(ValueError, match="n_boot must be >= 1"):
            stratified_stats(risks, times, events, 0.5, n_boot=n_boot)
    ok = stratified_stats(risks, times, events, 0.5, n_boot=50)
    assert ok["n_boot"] == 50 and np.isfinite(ok["rmst_delta"])
    rare = events.copy()
    rare[:10] = False
    rare[0] = True              # one low-risk event: most resamples miss it
    out = stratified_stats(risks, times, rare, 0.5, n_boot=200)
    assert math.isnan(out["rmst_delta"]) and "n_boot" not in out


def _summary_bits(summary):
    """Every field of a BootstrapSummary, floats by their bytes."""
    def bits(x):
        return np.float64(x).tobytes() if isinstance(x, float) else x
    return [tuple(map(bits, v)) if isinstance(v, tuple) else bits(v)
            for v in vars(summary).values()]


def _same_as_the_loop(*args, **kw):
    """bootstrap_stats and the per-replicate loop agree bit for bit on
    every field, or raise the same ValueError."""
    try:
        want = bootstrap_loop(*args, **kw)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            bootstrap_stats(*args, **kw)
        assert str(got.value) == str(err)
        return None
    got = bootstrap_stats(*args, **kw)
    assert _summary_bits(got) == _summary_bits(want)
    return got


@st.composite
def _bootstrap_groups(draw):
    """Two groups of 1-60 subjects with tied or integer times, often few
    events, and a horizon below the first event, among the events, or
    past the last time."""
    def group():
        n = draw(st.integers(1, 60))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        times = rng.exponential(draw(st.floats(1.0, 20.0)), n)
        rounding = draw(st.sampled_from(["none", "integer", "few"]))
        if rounding == "integer":
            times = np.round(times)
        elif rounding == "few":           # heavy ties
            times = rng.choice(np.round(times[:3], 1), n)
        events = rng.random(n) < draw(st.sampled_from([0.05, 0.2, 0.6, 1.0]))
        return times, events

    (th, eh), (tl, el) = group(), group()
    every = np.concatenate([th, tl])
    first = np.concatenate([th[eh], tl[el]]).min(initial=every.max())
    where = draw(st.sampled_from(["below", "inside", "above"]))
    if where == "below":
        tau = max(first, 0.01) * draw(st.floats(0.05, 0.95))
    elif where == "inside":
        tau = draw(st.floats(0.01, max(every.max(), 0.02)))
    else:
        tau = every.max() + draw(st.floats(0.01, 10.0))
    return th, eh, tl, el, tau


@given(_bootstrap_groups(), st.sampled_from([1, 7, 200]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_bootstrap_is_bitwise_the_per_replicate_loop(groups, n_boot, seed):
    th, eh, tl, el, tau = groups
    _same_as_the_loop(th, eh, tl, el, tau, n_boot=n_boot, seed=seed)


def test_bootstrap_matches_the_loop_on_skips_and_rejections():
    """Event-free resamples are skipped and counted as the loop counts
    them, and more than 20% of them raises the loop's ValueError."""
    th = np.linspace(30.0, 60.0, 10)
    eh = np.ones(10, dtype=bool)
    tl = np.linspace(5.0, 15.0, 10)
    el = np.zeros(10, dtype=bool)
    el[:2] = True
    out = _same_as_the_loop(th, eh, tl, el, tau=60.0, n_boot=1000, seed=17)
    assert 0 < out.n_skipped < 200
    el[1] = False
    with pytest.raises(ValueError, match="degenerate resamples"):
        bootstrap_stats(th, eh, tl, el, tau=60.0, n_boot=1000, seed=19)
    assert _same_as_the_loop(th, eh, tl, el, tau=60.0, n_boot=1000,
                             seed=19) is None


# ---------------------------------------------------- risk ordering, N_t == 1


def test_single_bin_risk_order_survives_constant_logit_shift():
    rng = np.random.default_rng(79)
    for _ in range(200):
        logits = rng.normal(0.0, 3.0, size=12)
        base = [hazards_from_logits([x]).risk for x in logits]
        moved = [hazards_from_logits([x + 1.7]).risk for x in logits]
        assert np.array_equal(np.argsort(base), np.argsort(moved))
