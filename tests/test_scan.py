import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sbxs.gbessel as gb
import sbxs.scan as scan
from closed_forms import partial_xs_circular, partial_xs_linear
from conftest import make_scenario, write_screened_table
from sbxs.dirac_oracle import xs_oracle
from sbxs.errors import ChannelClosedError, DomainError
from sbxs.potential import PotentialFT
from sbxs.scan import (
    envelope,
    k_sweep,
    oracle_deviation_sweep,
    partial,
    total_xs,
)
from sbxs.xsection import (
    PartialXS,
    XSBlock,
    elastic_born,
    partial_xs_general,
    partial_xs_nonrel,
)


def test_envelope_free_field_single_entry(pot_fig):
    s = make_scenario(pot_fig, K=0.0, zeta=1.0)
    env = envelope(s)
    assert len(env.entries) == 1
    assert env.entries[0].n == 0
    assert env.n_peak == 0
    assert env.total == pytest.approx(elastic_born(s), rel=1e-14)


def test_envelope_auto_range_tail_rule(fig1a):
    env = envelope(fig1a)
    peak = max(px.value for px in env.entries)
    # both ends sit under the tail cut relative to the global peak
    assert env.entries[0].value < 1e-8 * peak
    assert env.entries[-1].value < 1e-8 * peak
    # every channel between the ends is present exactly once
    ns = [px.n for px in env.entries]
    assert ns == list(range(ns[0], ns[-1] + 1))
    # the stop rule also cleared the Bessel-support margin
    for px in (env.entries[0], env.entries[-1]):
        assert abs(px.n) > px.alpha1 + 10.0 * (px.alpha1 ** (1 / 3) + 1.0)


def test_envelope_total_is_ordered_sum(fig1a):
    env = envelope(fig1a)
    acc = 0.0
    for px in env.entries:
        acc += px.value
    assert env.total == acc  # bitwise: fixed ascending-n summation


def test_envelope_deterministic(fig1a):
    a = envelope(fig1a)
    b = envelope(fig1a)
    assert [px.n for px in a.entries] == [px.n for px in b.entries]
    assert [px.value for px in a.entries] == [px.value for px in b.entries]
    assert a.total == b.total and a.n_peak == b.n_peak


def test_envelope_explicit_range(fig1a):
    env = envelope(fig1a, n_range=(-3, 3))
    assert [px.n for px in env.entries] == list(range(-3, 4))


def test_envelope_reversed_range_is_a_domain_error(fig1a):
    with pytest.raises(DomainError) as exc:
        envelope(fig1a, n_range=(5, 2))
    assert not isinstance(exc.value, ChannelClosedError)


def test_envelope_range_bounds_must_be_integers(fig1a):
    for n_range in ((1.7, 3.2), (0, math.nan), (-math.inf, 2)):
        with pytest.raises(DomainError, match="must be an integer"):
            envelope(fig1a, n_range=n_range)
    ref = envelope(fig1a, n_range=(1, 3))
    env = envelope(fig1a, n_range=(1.0, np.int64(3)))
    assert list(env.entries) == list(ref.entries) and env.total == ref.total


def test_envelope_explicit_range_skips_closed(pot_fig):
    # 27 eV electron: emission channels close at n = -24
    s = make_scenario(pot_fig, K=0.01, zeta=1.0, ek=27.0)
    env = envelope(s, n_range=(-30, -22))
    assert [px.n for px in env.entries] == [-23, -22]


def test_emission_thresholds(pot_fig):
    # the nonrel reference has the strict free-electron budget ek + n w > 0;
    # the dressed paths can tap the quiver energy and reach far lower n
    s = make_scenario(pot_fig, K=0.17, zeta=1.0, deflection_mrad=6.0, ek=27.0,
                      formula="nonrel")
    assert partial(s, -23).value >= 0.0
    with pytest.raises(ChannelClosedError):
        partial(s, -24)
    s_rel = make_scenario(pot_fig, K=0.17, zeta=1.0, deflection_mrad=6.0,
                          ek=27.0)
    assert partial(s_rel, -24).value >= 0.0
    assert envelope(s_rel).entries[0].n < -23


def test_total_converged_against_wider_margins(fig1a, monkeypatch):
    a = total_xs(fig1a)
    monkeypatch.setattr(scan, "MARGIN_FACTOR", 20.0)
    b = total_xs(fig1a, tail_cut=1e-16)
    assert a == pytest.approx(b, rel=1e-6)


def test_total_free_field_continuity(pot_fig):
    s0 = make_scenario(pot_fig, K=0.0, zeta=1.0)
    s = make_scenario(pot_fig, K=1e-4, zeta=1.0)
    assert total_xs(s) == pytest.approx(elastic_born(s0), rel=1e-6)


def test_partial_formula_dispatch(pot_fig, k_fig):
    # general is the production formula, nonrel the dipole reference
    s = make_scenario(pot_fig, K=k_fig, zeta=1.0)
    assert partial(s, -4) == partial_xs_general(s, -4)
    s = make_scenario(pot_fig, K=k_fig, zeta=1.0, formula="nonrel")
    assert partial(s, -4) == partial_xs_nonrel(s, -4)
    # the closed forms and the spinor oracle are cross-checks only
    for formula in ("circular", "linear", "oracle"):
        with pytest.raises(DomainError, match=formula):
            make_scenario(pot_fig, K=k_fig, zeta=1.0, formula=formula)


@pytest.mark.parametrize("n", [2.5, -0.5, math.nan, math.inf])
def test_partial_rejects_non_integer_photon_numbers(pot_fig, fig1a, n):
    nonrel = make_scenario(pot_fig, K=fig1a.laser.K, formula="nonrel")
    for s in (fig1a, nonrel):
        with pytest.raises(DomainError, match="photon number must be an integer"):
            partial(s, n)
    with pytest.raises(DomainError, match="photon number must be an integer"):
        partial_xs_nonrel(fig1a, n)


def test_partial_integral_photon_numbers_match_int(pot_fig, fig1a):
    nonrel = make_scenario(pot_fig, K=fig1a.laser.K, formula="nonrel")
    for s in (fig1a, nonrel):
        ref = partial(s, 2)
        for n in (2.0, np.int64(2), np.int32(2)):
            px = partial(s, n)
            assert px == ref and type(px.n) is int


@pytest.mark.parametrize("check, zeta, kw", [
    (partial_xs_circular, 1.0, {}),
    (xs_oracle, 1.0, {}),
    (partial_xs_linear, 0.0,
     dict(direction=(0.3, 0.2, 0.9), deflection_mrad=6.0)),
])
def test_envelope_matches_cross_checks(pot_fig, k_fig, check, zeta, kw):
    # every channel of the general envelope, at the oracle sweep's 1e-8 and
    # 1e-12-of-peak floor
    s = make_scenario(pot_fig, K=k_fig, zeta=zeta, **kw)
    env = envelope(s)
    peak = max(px.value for px in env.entries)
    checked = 0
    for px in env.entries:
        if px.value <= 1.0e-12 * peak:
            continue
        other = check(s, px.n)
        other = getattr(other, "value", other)
        assert other == pytest.approx(px.value, rel=1e-8), px.n
        checked += 1
    assert checked > 30


def test_k_sweep_order_and_values(fig1a):
    pts = k_sweep(fig1a, [0.1, 0.3, 0.5])
    assert [p.K for p in pts] == [0.1, 0.3, 0.5]
    assert all(p.error is None and p.total > 0.0 for p in pts)


def test_k_sweep_tiny_k_is_elastic(pot_fig):
    s = make_scenario(pot_fig, K=0.17, zeta=1.0)
    s0 = make_scenario(pot_fig, K=0.0, zeta=1.0)
    pts = k_sweep(s, [1e-6])
    assert pts[0].total == pytest.approx(elastic_born(s0), rel=1e-9)


def test_k_sweep_rejects_bad_grid(fig1a):
    with pytest.raises(DomainError):
        k_sweep(fig1a, [0.5, 0.1])
    with pytest.raises(DomainError):
        k_sweep(fig1a, [0.0, 0.1])
    with pytest.raises(DomainError):
        k_sweep(fig1a, [0.1, 2.0])


def test_k_sweep_reports_per_point_errors(tmp_path):
    # narrow custom table: large K pushes q_n outside the tabulated range
    path = write_screened_table(tmp_path / "narrow.tab", n=200,
                                q_range=(0.05, 0.35))
    pot = PotentialFT.from_table(path)
    s = make_scenario(pot, K=0.17, zeta=1.0, deflection_mrad=6.0)
    pts = k_sweep(s, [0.05, 1.2])
    # the bad point's error leaves the good point's total as it is alone,
    # and is the error of its own total
    assert pts[0].error is None
    assert pts[0].total == total_xs(s.with_K(0.05))
    with pytest.raises(DomainError) as exc:
        total_xs(s.with_K(1.2))
    assert pts[1].error == f"{type(exc.value).__name__}: {exc.value}"
    assert math.isnan(pts[1].total)


def test_k_sweep_isolates_a_point_whose_bessel_argument_is_refused(fig1a, monkeypatch):
    # a lane that the Bessel plan refuses fails its own point only
    monkeypatch.setattr(gb, "_MAX_ARG", 130.0)
    grid = [0.1, 0.9]
    pts = k_sweep(fig1a, grid)
    assert pts[0].error is None
    assert pts[0].total == total_xs(fig1a.with_K(0.1))
    with pytest.raises(DomainError) as exc:
        total_xs(fig1a.with_K(0.9))
    assert str(exc.value).startswith("|u|, |v| <= 130.0 required, got |u| = ")
    assert pts[1].error == f"DomainError: {exc.value}"


def test_k_sweep_equals_independent_totals_in_order(fig1a):
    grid = [0.1, 0.2, 0.4, 0.8]
    points = k_sweep(fig1a, grid)
    assert [p.K for p in points] == grid
    assert [p.error for p in points] == [None] * len(grid)
    # bitwise: each point is exactly the total of its own scenario
    assert [p.total for p in points] == [total_xs(fig1a.with_K(K)) for K in grid]


def test_k_sweep_honours_tail_cut(fig1a, monkeypatch):
    grid, t = [0.1, 0.4], 1.0e-3
    points = k_sweep(fig1a, grid, tail_cut=t)
    assert [p.total for p in points] == [total_xs(fig1a.with_K(K), tail_cut=t)
                                         for K in grid]
    # fig1a totals do not move with the cut, so also check it is passed on
    seen = []
    monkeypatch.setattr(scan, "total_xs",
                        lambda s, tail_cut: seen.append(tail_cut) or 1.0)
    k_sweep(fig1a, grid, tail_cut=t)
    assert seen == [t] * len(grid)


def test_oracle_sweep_deterministic():
    a = oracle_deviation_sweep(seed=7, samples=10)
    b = oracle_deviation_sweep(seed=7, samples=10)
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[0] < 1e-8


@pytest.mark.parametrize("samples", [-3, 0])
def test_oracle_sweep_needs_a_sample(samples):
    with pytest.raises(DomainError):  # an empty sweep would pass vacuously
        oracle_deviation_sweep(seed=7, samples=samples)


# ---------------------------------------------------------------------------
# envelopes evaluated as blocks of channels
# ---------------------------------------------------------------------------

def _fields(px):
    return (px.n, px.value, px.terms, px.alpha1, px.q2)


ZETA_HALF = dict(K=0.17, zeta=0.5, deflection_mrad=6.0,
                 direction=(0.3, -0.2, 1.0))
GENERAL_CLOSING = dict(K=0.05, zeta=1.0, deflection_mrad=200.0,
                       ek=27.0)  # -n closes
NONREL_CLOSING = dict(K=0.01, zeta=1.0, deflection_mrad=200.0, ek=27.0,
                      formula="nonrel")  # ek + n w closes at n = -24


@pytest.mark.parametrize(
    "kw", [ZETA_HALF, GENERAL_CLOSING, dict(K=0.0, zeta=1.0), NONREL_CLOSING])
def test_block_envelope_equals_single_channels(pot_fig, kw):
    s = make_scenario(pot_fig, **kw)
    single = partial_xs_nonrel if s.formula == "nonrel" else partial_xs_general
    env = envelope(s)
    ns = [px.n for px in env.entries]
    assert [_fields(px) for px in env.entries] == \
        [_fields(single(s, n)) for n in ns]
    if kw.get("ek") == 27.0:
        with pytest.raises(ChannelClosedError):
            single(s, ns[0] - 1)
    if kw is NONREL_CLOSING:
        assert ns[0] == -23
    if kw["K"] == 0.0:
        assert ns == [0]
    # an explicit range is one block; it skips the closed channels
    lo, hi = ns[0] - 3, ns[0] + 30
    singles = []
    for n in range(lo, hi + 1):
        try:
            singles.append(_fields(single(s, n)))
        except ChannelClosedError:
            continue
    ranged = envelope(s, n_range=(lo, hi))
    assert [_fields(px) for px in ranged.entries] == singles


@pytest.mark.parametrize("kw", [None, ZETA_HALF, GENERAL_CLOSING,
                                NONREL_CLOSING])
def test_envelope_independent_of_block_size(pot_fig, fig1a, kw, monkeypatch):
    # the auto range is canonical: regrouping its channels into blocks of
    # any size, walking each side to any slack and sweeping the Bessel rows
    # in chunks of any bound moves no entry, no total and no peak
    s = fig1a if kw is None else make_scenario(pot_fig, **kw)
    chunks = []
    real_chunk = gb._sweep_chunk
    monkeypatch.setattr(gb, "_sweep_chunk",
                        lambda *a: chunks.append(1) or real_chunk(*a))
    seen = []
    for size, slack, bound in ((24, 8.0, 1 << 18), (1, 8.0, 1 << 18),
                               (7, 0.0, 1 << 18), (500, 8.0, 1 << 18),
                               (24, -40.0, 1 << 18), (24, 100.0, 1 << 18),
                               (24, 8.0, 1), (24, 8.0, 300)):
        monkeypatch.setattr(scan, "BLOCK_EXTEND", size)
        monkeypatch.setattr(scan, "WALK_SLACK", slack)
        monkeypatch.setattr(gb, "_SWEEP_CHUNK", bound)
        chunks.clear()
        env = envelope(s)
        seen.append(([_fields(px) for px in env.entries], env.total,
                     env.n_peak, env.alpha1_at_peak))
        if kw is ZETA_HALF and bound == 300:
            assert len(chunks) > 3      # the bound splits the one block
    assert all(got == seen[0] for got in seen[1:])


def test_fig1a_envelope_sweeps_in_blocks(fig1a, sweeps):
    # a fallback to one Miller row per channel would run ~70 sweeps here;
    # the walk reaches every channel of fig1a, and the center and both
    # sides are one block: one sweep
    env = envelope(fig1a)
    assert len(env.entries) == 69
    assert sweeps == {"batched": 1, "scalar": 0}


def test_fig1a_k_sweep_sweeps_once_per_first_block(fig1a, sweeps):
    # 9 envelopes, each one walked block: one sweep per envelope (the
    # first block and the extension blocks of each side made 11)
    k_sweep(fig1a, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    assert sweeps == {"batched": 9, "scalar": 0}


def test_envelope_table_range_error_comes_from_the_first_block(tmp_path, fig1a):
    # the first channel of the shared first block (+n before -n) whose |q|
    # leaves the table raises; the center n = 0 lies inside it
    path = write_screened_table(tmp_path / "short.tab", n=50,
                                q_range=(0.005, 0.05))
    s = dataclasses.replace(fig1a, potential=PotentialFT.from_table(path))
    assert partial(s, 0).value > 0.0
    with pytest.raises(DomainError) as exc:
        envelope(s)
    assert str(exc.value) == (
        "|q| = 189.72595114733295 eV outside table range "
        "[18.644697514847905, 186.44697514847905] eV")


# ---------------------------------------------------------------------------
# lanes of a block: each is its one-channel evaluation, bit for bit
# ---------------------------------------------------------------------------

def _typed_bits(px):
    """(type, float.hex) of every field of a PartialXS."""
    t = px.terms
    fields = (px.value, t.main_energy, t.recoil, t.wave_pressure, px.alpha1,
              px.q2)
    return ((type(px.n), px.n),
            *((type(x), float.hex(float(x))) for x in fields))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(zeta=st.floats(0.0, 1.0), K=st.floats(0.01, 0.9),
       cos_polar=st.floats(-1.0, 1.0), azimuth=st.floats(0.0, 2.0 * math.pi),
       deflection_mrad=st.floats(0.3, 30.0), n_min=st.integers(-40, 40),
       count=st.integers(1, 17))
def test_block_lanes_equal_single_channels(pot_fig, zeta, K, cos_polar,
                                           azimuth, deflection_mrad, n_min,
                                           count):
    # a numpy loop whose tail lanes round differently would show here
    sin_polar = math.sqrt(1.0 - cos_polar**2)
    direction = (sin_polar * math.cos(azimuth), sin_polar * math.sin(azimuth),
                 cos_polar)
    s = make_scenario(pot_fig, K=K, zeta=zeta, direction=direction,
                      deflection_mrad=deflection_mrad, azimuth=azimuth)
    env = envelope(s, n_range=(n_min, n_min + count - 1))
    assert [px.n for px in env.entries] == list(range(n_min, n_min + count))
    for px in env.entries:
        assert _typed_bits(px) == _typed_bits(partial(s, px.n)), px.n


@pytest.mark.parametrize("tail_cut", [0.0, -1.0, 1.0, 2.0, math.nan])
def test_tail_cut_outside_unit_interval_raises(fig1a, tail_cut):
    with pytest.raises(DomainError, match="tail_cut"):
        envelope(fig1a, tail_cut=tail_cut)
    with pytest.raises(DomainError, match="tail_cut"):
        total_xs(fig1a, tail_cut=tail_cut)
    [point] = k_sweep(fig1a, [0.2], tail_cut=tail_cut)
    assert math.isnan(point.total) and "tail_cut" in point.error


# ---------------------------------------------------------------------------
# an envelope is one column table: the stop rule and the trim as array scans
# ---------------------------------------------------------------------------

def _reference_envelope(center, sides, tail_cut):
    """The record-by-record loop the array scans replace: (kept n in
    ascending order, n_peak, alpha1_at_peak, total).

    center is (value, alpha1) at n = 0; sides[0] and sides[1] are the + and
    - sides, each a list of (value, alpha1) outward from |n| = 1.  A side
    runs until its first channel with value <= tail_cut * the running peak
    and |n| > margin(alpha1), or to its end; the trim then keeps each side
    up to its first channel that meets the rule against the final peak.
    """
    def tail_done(n, value, alpha1, vmax):
        margin = alpha1 + scan.MARGIN_FACTOR * (alpha1 ** (1.0 / 3.0) + 1.0)
        return value <= tail_cut * vmax and abs(n) > margin

    vmax = center[0]
    walked = ([], [])
    for step, side, out in zip((1, -1), sides, walked):
        for i, (value, alpha1) in enumerate(side):
            out.append((step * (i + 1), value, alpha1))
            vmax = max(vmax, value)
            if tail_done(step * (i + 1), value, alpha1, vmax):
                break
    kept = [(0, *center)]
    for side in walked:
        for lane in side:
            kept.append(lane)
            if tail_done(*lane, vmax):
                break
    kept.sort()
    total, peak = 0.0, kept[0]
    for lane in kept:
        total += lane[1]
        if lane[1] > peak[1]:
            peak = lane
    return [lane[0] for lane in kept], peak[0], peak[2], total


def _xs_lanes(ns, lanes):
    """An XSBlock of channels ns with the (value, alpha1) of lanes."""
    values = np.array([v for v, _ in lanes], dtype=float)
    return XSBlock(list(ns), values, values, np.zeros(len(ns)),
                   np.zeros(len(ns)), np.array([a for _, a in lanes], dtype=float),
                   np.zeros(len(ns)))


def _margin_root(n):
    """The alpha1 whose float margin(alpha1) lies nearest to n > 0."""
    lo, hi = 0.0, float(n)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid + 10.0 * (mid ** (1.0 / 3.0) + 1.0) < n:
            lo = mid
        else:
            hi = mid
    return hi


MARGIN_ROOTS = [_margin_root(n) for n in range(1, 41)]


@st.composite
def _stop_rule_case(draw):
    """(center, sides, tail_cut, first lanes per side): values that tie the
    running peak or sit exactly on (or an ulp off) tail_cut * a peak, and
    alpha1 whose margin lies within an ulp of |n|."""
    tail_cut = draw(st.sampled_from([0.25, 0.5, 1.0e-8]))
    peak = draw(st.sampled_from([1.0, 3.0, 0.1]))
    at_cut = tail_cut * peak
    values = st.one_of(
        st.sampled_from([peak, 2.0 * peak, at_cut, tail_cut * 2.0 * peak,
                         math.nextafter(at_cut, 0.0), math.nextafter(at_cut, 1.0),
                         0.0, 0.5 * peak]),
        st.floats(0.0, 4.0 * peak))

    def side(step):
        lanes = []
        for i in range(draw(st.integers(0, 40))):
            n = step * (i + 1)
            root = MARGIN_ROOTS[i]
            alpha1 = draw(st.sampled_from([
                0.0, root, math.nextafter(root, 0.0),
                math.nextafter(root, math.inf), 10.0 * abs(n)]))
            lanes.append((draw(values), alpha1))
        return lanes

    sides = (side(1), side(-1))
    firsts = tuple(draw(st.integers(0, len(s))) for s in sides)
    return (draw(values), 0.0), sides, tail_cut, firsts


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=_stop_rule_case())
def test_stop_rule_scan_equals_the_record_loop(case):
    # the array scans keep the loop's channels, peak and total bit for bit,
    # also where a side must extend past its first block
    center, sides, tail_cut, firsts = case

    def extension(scenario, ns):
        ns = list(ns)
        side = sides[0] if ns[0] > 0 else sides[1]
        have = [n for n in ns if abs(n) <= len(side)]
        closed = None if len(have) == len(ns) else ChannelClosedError(ns[len(have)])
        return _xs_lanes(have, [side[abs(n) - 1] for n in have]), closed

    plus = [i + 1 for i in range(firsts[0])]
    minus = [-(i + 1) for i in range(firsts[1])]
    first = _xs_lanes([0, *plus, *minus], [center, *sides[0][:firsts[0]],
                                           *sides[1][:firsts[1]]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "BLOCK_EXTEND", 3)
        mp.setattr(scan, "_walk", lambda s: (None, len(plus), [True, True]))
        mp.setattr(scan, "partial_xs_general_block", lambda s, b: (first, None))
        mp.setattr(scan, "_block", extension)
        env = envelope(SimpleNamespace(formula="general"), tail_cut=tail_cut)
    ns, n_peak, alpha1_at_peak, total = _reference_envelope(center, sides,
                                                            tail_cut)
    assert env.entries.n == ns
    assert (env.n_peak, env.alpha1_at_peak) == (n_peak, alpha1_at_peak)
    assert float.hex(float(env.total)) == float.hex(total)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(values=st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-300]),
                       min_size=1, max_size=300))
def test_envelope_total_and_peak_are_the_ordered_loop(values):
    # np.cumsum from 0.0 is `total += value`; np.argmax is the strict > loop
    env = scan._finish(_xs_lanes(range(len(values)), [(v, 0.0) for v in values]))
    total, peak = 0.0, 0
    for i, v in enumerate(values):
        total += v
        if v > values[peak]:
            peak = i
    assert float.hex(float(env.total)) == float.hex(total)
    assert env.n_peak == peak


@pytest.fixture
def records(monkeypatch):
    """Counts the PartialXS built."""
    built = []
    real = PartialXS.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)
    monkeypatch.setattr(PartialXS, "__init__", counted)
    return built


@pytest.mark.parametrize("formula", ["general", "nonrel"])
def test_auto_envelope_builds_no_records(pot_fig, k_fig, records, formula):
    env = envelope(make_scenario(pot_fig, K=k_fig, zeta=1.0, formula=formula))
    assert len(env.entries) > 20 and not records
    env.entries[3]             # the lane view is where a record is built
    assert len(records) == 1


def test_k_sweep_builds_no_records(fig1a, records):
    k_sweep(fig1a, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    assert not records


@pytest.mark.parametrize("formula", ["general", "nonrel"])
def test_lane_view_is_the_partial(pot_fig, k_fig, formula):
    # types included: the value and terms np.float64, alpha1 and q2 floats
    s = make_scenario(pot_fig, K=k_fig, zeta=0.5, direction=(0.3, -0.2, 1.0),
                      deflection_mrad=6.0, formula=formula)
    env = envelope(s)
    for i in range(0, len(env.entries), 7):
        px = env.entries[i]
        assert px == partial(s, px.n)
        assert _typed_bits(px) == _typed_bits(partial(s, px.n)), px.n
        assert type(px.value) is np.float64 and type(px.alpha1) is float
    assert [px.n for px in env.entries] == env.entries.n
