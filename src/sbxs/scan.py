"""Envelope sweeps over photon number, totals, and intensity sweeps.

An auto envelope first walks the channel kinematics of each side outward
from n = 0 (no Bessel row built) to where |n| clears the Bessel-support
margin at its own alpha1(n), then evaluates the center and both sides as
one block, so it pays one Miller sweep; a side extends only if its tail
rule is not met there.  An envelope is one XSBlock (a column table); its
stop rule, trim, peak and total are scans over the columns, in a fixed
(ascending n / grid) order in one thread, so results are bitwise
reproducible and no result depends on how channels are grouped into blocks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dirac_oracle import xs_oracle
from .errors import ChannelClosedError, ConvergenceError, DomainError, _integer
from .gbessel import _MAX_ARG, _cbrt, _orders
from .kinematics import ChannelBlock, LaserField, _unit
from .potential import PotentialFT
# Nothing here calls partial_xs_general: bench/run.py reads it from this
# module (TRACE_TARGETS) until roadmap item 7 drops that tracer.
from .xsection import (  # noqa: F401
    Scenario,
    XSBlock,
    partial_xs_general,
    partial_xs_general_block,
    partial_xs_nonrel_block,
)

TAIL_CUT_DEFAULT = 1.0e-8
# The auto range runs past alpha1 + MARGIN_FACTOR * (alpha1^(1/3) + 1), the
# Bessel-support margin, before the tail cut may end it.
MARGIN_FACTOR = 10.0

# The walk along a side of the auto range ends at the first n with |n| >
# margin(alpha1(n)) + WALK_SLACK.  Over 75 random-scenario envelopes, 8 cut
# the sweeps of two K = 0.8, zeta < 1 envelopes from 3 to 1 and 2, which 0
# and 4 did not, for about 4 % more CPU on the fig1a intensity sweep.
WALK_SLACK = 8.0

# Channels per side in each block that extends the auto range past its
# walk, and in the walk's first step (each further step opens twice as
# many).
BLOCK_EXTEND = 24


def partial(scenario, n):
    """Single channel under the scenario's formula: its one-lane block's."""
    lanes, closed = _block(scenario, [n])
    if closed is not None:
        raise closed
    return lanes[0]


@dataclass(frozen=True, eq=False)
class Envelope:
    """Partial cross sections vs photon number: an XSBlock in ascending n."""

    entries: XSBlock
    n_peak: int
    alpha1_at_peak: float
    total: float


def _margin(alpha1):
    """The Bessel-support margin of each alpha1, its cube root rounded as a
    float's ** (1/3) (_cbrt), so a lane decides as its floats would."""
    return alpha1 + MARGIN_FACTOR * (_cbrt(alpha1) + 1.0)


def _check_tail_cut(tail_cut):
    """tail_cut, or a DomainError unless it lies in (0, 1)."""
    if not 0.0 < tail_cut < 1.0:
        raise DomainError(f"tail_cut must lie in (0, 1), got {tail_cut}")
    return tail_cut


def _block(scenario, ns):
    """The XSBlock of the open channels of ns, in order, under the
    scenario's formula, and the first ChannelClosedError met or None."""
    if scenario.formula == "nonrel":
        return partial_xs_nonrel_block(scenario, ns)
    block, closed = scenario.channels(ns)
    return partial_xs_general_block(scenario, block)[0], closed


def _walk(scenario):
    """The first block of the scenario's auto range, found from kinematics
    alone: (the ChannelBlock of n = 0, then of the + side outward, then of
    the - side outward; the channel count of the + side; per side, whether
    it may go on past the block, i.e. met no closed channel).

    Each side runs out from n = 0 up to the first n with |n| >
    margin(alpha1(n)) + WALK_SLACK, up to the first whose alpha1 the
    Bessel rows refuse (not at most _MAX_ARG, so the block's evaluation
    names it), or up to the first closed channel, which ends the side: a
    channel closes only below a threshold n, so every channel past a closed
    one is closed too.  One open_channels call per step opens the next
    channels of both sides (and n = 0 in the first), BLOCK_EXTEND per side
    at first and twice as many at each further step.
    """
    field = scenario.laser.a0bar != 0.0
    center, sides = None, ([], [])   # ChannelBlocks of n = 0, of each side
    more = [field, field]         # the side may go on past its walk
    going = [field, field]        # the side's walk goes on
    walked, size = [0, 0], BLOCK_EXTEND
    ns = [0, *range(1, size + 1), *range(-1, -size - 1, -1)] if field else [0]
    while ns:
        block, closed = scenario.channels(ns)
        if closed is not None and closed.n == 0:
            raise closed
        signs = np.sign(block.n)       # block order: n = 0, + side, - side
        ends = np.cumsum([0, *(np.count_nonzero(signs == w) for w in (0, 1, -1))])
        if center is None:
            center = block.take(slice(ends[0], ends[1]))
        ns = []
        for side, step in enumerate((1, -1)):
            lanes = block.take(slice(ends[side + 1], ends[side + 2]))
            if going[side]:
                past = ((np.abs(lanes.n) > _margin(lanes.alpha1) + WALK_SLACK)
                        | ~(lanes.alpha1 <= _MAX_ARG))
                if past.any():
                    lanes = lanes.take(slice(0, int(np.argmax(past)) + 1))
                    going[side] = False
                elif len(lanes) < size:
                    going[side] = more[side] = False
            sides[side].append(lanes)
            walked[side] += len(lanes)
            if going[side]:
                ns += range(step * (walked[side] + 1),
                            step * (walked[side] + 2 * size + 1), step)
        size *= 2
    return ChannelBlock.join([center, *sides[0], *sides[1]]), walked[0], more


def _stop(side, peak, tail_cut):
    """The lanes of a side (outward) up to and with the first that meets the
    stop rule, value <= tail_cut * peak (one peak, or each lane's) and |n| >
    margin(alpha1), or None when none does."""
    near = np.flatnonzero(side.value <= tail_cut * peak)
    far = np.abs(np.take(side.n, near)) > _margin(side.alpha1[near])
    return int(near[np.argmax(far)]) + 1 if far.any() else None


def envelope(scenario, n_range=None, tail_cut=TAIL_CUT_DEFAULT):
    """Channel envelope; auto range expands from n = 0 until the tail is
    below tail_cut * peak AND |n| clears the Bessel support margin.

    The auto range of the general formula walks each side's kinematics out
    to margin(alpha1(n)) plus WALK_SLACK, or to its first closed channel,
    and evaluates the center and both sides as one block (one Miller
    sweep); the nonrel reference starts both sides empty.  A side extends
    by BLOCK_EXTEND channels at a time while the tail rule is not met.
    An explicit (n_min, n_max) range, ints of |n| <= _MAX_ORDER, skips its
    closed channels.  The included set is canonical: it never depends on
    which side expanded first, nor on how the channels were grouped into
    blocks.
    """
    _check_tail_cut(tail_cut)
    if n_range is not None:
        n_min = _integer(n_range[0], "n_min")
        n_max = _integer(n_range[1], "n_max")
        _orders((n_min, n_max))
        if n_min > n_max:
            raise DomainError(f"n_range {n_range} has n_min > n_max")
        lanes, _ = _block(scenario, range(n_min, n_max + 1))
        if not len(lanes):
            raise ChannelClosedError(n_min, "no open channels in range")
        return _finish(lanes)

    if scenario.formula == "general":
        block, plus, more = _walk(scenario)
        lanes = partial_xs_general_block(scenario, block)[0]
    else:
        lanes, closed = _block(scenario, [0])
        if closed is not None:
            raise closed
        plus, more = 0, [scenario.laser.a0bar != 0.0] * 2
    # Each side in turn runs to its stop against the running peak, extending
    # while it has not stopped and met no closed channel.
    peak, sides = lanes.value[0], []
    for step, side, go_on in zip((1, -1), (lanes.take(slice(1, 1 + plus)),
                                           lanes.take(slice(1 + plus, None))),
                                 more):
        while True:
            running = np.maximum.accumulate(np.append(peak, side.value))
            stop = _stop(side, running[1:], tail_cut)
            if stop or not go_on:
                break
            n = step * (len(side) + 1)
            ext, closed = _block(scenario, range(n, n + step * BLOCK_EXTEND, step))
            side, go_on = XSBlock.join([side, ext]), closed is None
        sides.append(side.take(slice(0, stop)))
        peak = running[stop or len(side)]
    # Canonical trim: each side up to its first stop against the final peak,
    # the peak of the center and of each side up to its stop.
    plus, minus = (side.take(slice(0, _stop(side, peak, tail_cut)))
                   for side in sides)
    return _finish(XSBlock.join([minus.take(slice(None, None, -1)),
                                 lanes.take(slice(0, 1)), plus]))


def _finish(lanes):
    """The Envelope of an XSBlock in ascending n: its first peak, and its
    total summed from 0.0 in order by np.cumsum (np.sum is pairwise)."""
    i = int(np.argmax(lanes.value))
    return Envelope(entries=lanes, n_peak=lanes.n[i],
                    alpha1_at_peak=float(lanes.alpha1[i]),
                    total=np.cumsum(np.append(0.0, lanes.value))[-1])


def total_xs(scenario, tail_cut=TAIL_CUT_DEFAULT):
    """Sum of the auto-ranged envelope (dsigma/dOmega over all channels)."""
    return envelope(scenario, tail_cut=tail_cut).total


@dataclass(frozen=True)
class KPoint:
    """One intensity-sweep sample; `error` is None on success."""

    K: float
    total: float
    error: str = None


def k_sweep(scenario, k_grid, tail_cut=TAIL_CUT_DEFAULT):
    """Independent totals per intensity parameter K, input order preserved.

    Per-point failures are reported in the output records instead of
    aborting the sweep.
    """
    k_grid = [float(k) for k in k_grid]
    if any(not 0.0 < k <= 1.5 for k in k_grid):
        raise DomainError("k_grid values must lie in (0, 1.5]")
    if sorted(k_grid) != k_grid:
        raise DomainError("k_grid must be sorted ascending")

    points = []
    for K in k_grid:
        try:
            total = total_xs(scenario.with_K(K), tail_cut=tail_cut)
            points.append(KPoint(K=K, total=total))
        except (ConvergenceError, DomainError) as exc:
            points.append(KPoint(K=K, total=math.nan,
                                 error=f"{type(exc).__name__}: {exc}"))
    return points


def random_scenarios(seed, count):
    """Deterministic stream of randomized comparison scenarios of a 2.7 keV
    electron in a 1.17 eV wave on the Za = 1, 4 bohr screened Coulomb
    potential, spanning zeta {0, 0.5, 1}, K {0.01, 0.17, 0.8}, deflections
    {0.6, 6, 60} mrad and parallel/antiparallel/oblique electron
    directions."""
    pot = PotentialFT.screened_coulomb_au(1.0, 4.0)
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        zeta = float(rng.choice([0.0, 0.5, 1.0]))
        K = float(rng.choice([0.01, 0.17, 0.8]))
        defl = float(rng.choice([0.6, 6.0, 60.0])) * 1.0e-3
        kind = int(rng.integers(0, 3))
        if kind == 0:
            direction = (0.0, 0.0, 1.0)
        elif kind == 1:
            direction = (0.0, 0.0, -1.0)
        else:
            vec = rng.normal(size=3)
            direction = tuple(_unit(vec, "direction"))
        azimuth = float(rng.uniform(0.0, 2.0 * math.pi))
        laser = LaserField.from_K(1.17, K, zeta)
        out.append(
            Scenario(
                laser=laser,
                kinetic_energy=2700.0,
                direction=direction,
                potential=pot,
                deflection=defl,
                azimuth=azimuth,
            )
        )
    return out


def oracle_deviation_sweep(seed, samples):
    """Max relative deviation |general - oracle| over randomized open channels.

    Returns (max_rel_dev, records); each record is (scenario index, n,
    general value, oracle value, relative deviation).  Channels are drawn
    across the envelope support of each scenario; draws whose value sits
    below 1e-12 of the elastic channel are redrawn, since values that deep
    in the suppressed tail are not defined to 1e-8 relative in double
    precision by any formulation (and carry no weight in any observable).
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    scenarios = random_scenarios(seed, samples)
    rng = np.random.default_rng(seed + 1)
    records = []
    for idx, scenario in enumerate(scenarios):
        center, closed = scenario.channels([0])
        if closed is not None:
            raise closed
        span = int(math.ceil(center.alpha1[0])) + 3
        floor = None
        for _ in range(12):
            n = int(rng.integers(-span, span + 1))
            block, closed = scenario.channels([n])
            if floor is None:
                # n = 0 rides in the first draw's block: its value sets the floor
                block = ChannelBlock.join([center, block])
            elif closed is not None:
                continue
            lanes, d = partial_xs_general_block(scenario, block)
            if floor is None:
                floor = 1.0e-12 * lanes.value[0]
            if closed is not None:
                continue
            # the oracle reads the channel's D-functions from this block
            general = lanes.value[-1]
            oracle = xs_oracle(scenario, n, (block.channel(-1), d.lane(-1)))
            scale = max(abs(general), abs(oracle))
            if scale <= floor:
                continue
            rel = abs(general - oracle) / scale
            records.append((idx, n, general, oracle, rel))
            break
    max_dev = float(max((r[4] for r in records), default=0.0))
    return max_dev, records
