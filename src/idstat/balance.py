"""Kinetics of s-fold condensed wavepackets and their detailed balance.

Two species of wavepackets live on a shared energy grid.  A packet of
condensation order s represents s quanta in one bin; p(s, eps) is the
mean number density of such packets.  A collision channel moves n quanta
within species 1 (order s -> s-n at the initial energy, r -> r+n at the
final one) and n' quanta within species 2, subject to energy conservation
n*(eps1i - eps1f) = n'*(eps2f - eps2i).  Detailed balance requires

    p(s,e1i) p(r,e1f) q(s',e2i) q(r',e2f)
        = p(s-n,e1i) p(r+n,e1f) q(s'-n',e2i) q(r'+n',e2f)

whose solution is geometric in the order, p(s,eps) = a(eps) exp(-(b*eps-c)s),
with a fixed by the per-bin packet total.  Summing s * p over orders then
reproduces the Bose (unbounded s) or Fermi (s <= 1) occupation spectra.

``relax`` drives arbitrary admissible populations to that fixed point.
Each sweep makes one pass of population shifts along the inter-bin
channels, each 0.9 of a per-channel Newton step on its imbalance, and
then fully equilibrates each bin's condensation ladder at fixed per-bin
packet and quantum numbers (the limit of iterating the within-bin
channels, which every within-bin channel balances identically).  The
sweep conserves per-bin packet totals, each species' total quantum
number, and (through channel energy conservation) the combined energy.
``equilibrium`` solves for the fixed point with those invariants
directly.

A channel set is a ``ChannelColumns``: ten equal-length arrays named
after ``CollisionChannel``'s fields, one row per channel.
``standard_channels`` builds one with numpy; a hand-built set passes one
sequence per field.  ``relax``, ``scramble`` and ``balance_residuals``
take it, and one packing step checks the columns and gives each channel
its eight slots in the joint table, p and q flattened end to end: the
forward and reverse slot of each of the four packets a move touches.
``balance_residual`` takes one ``CollisionChannel``.

The H-function of the kinetics is the Stirling packet entropy
S = k * sum_bins [g ln g - sum_s c ln c], c = p * d_eps
(``stirling_entropy``); the geometric ladder maximizes it per bin at
fixed totals.  S is nondecreasing along the trajectory up to roundoff:
no sweep lowers it by more than 16 * eps * A, where
A = k * sum (|g ln g| + |c ln c|) and eps is the double-precision
machine epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    DivergentSeries,
    InvariantViolation,
    NonConvergence,
    OffGrid,
    OrderOverflow,
)

__all__ = [
    "CondensatePopulation",
    "CollisionChannel",
    "ChannelColumns",
    "stationary_population",
    "standard_channels",
    "scramble",
    "balance_residual",
    "balance_residuals",
    "total_quanta",
    "packet_entropy",
    "stirling_entropy",
    "RelaxResult",
    "relax",
    "Equilibrium",
    "equilibrium",
]

# Per-bin packet totals may drift by at most this much (relative) before
# entropy/conservation queries refuse the population.
TOTAL_DRIFT_TOL = 1e-6

# Default cap on the condensation order when an unbounded Bose sum is
# requested; the geometric tail beyond the cap must be below this mass.
DEFAULT_S_MAX = 64
TAIL_MASS_TOL = 1e-12

# A ladder column stops once its Newton step in ln(ratio) is this small
# relative to max(1, |ln ratio|): Newton converges quadratically, so the
# step it has just taken leaves an error far below one ulp.
_LADDER_STEP_FLOOR = 64 * np.finfo(float).eps

# |ln ratio| past which the order-1 slot of a normalized ladder underflows.
_LX_BOUND = -float(np.log(np.finfo(float).smallest_subnormal))

# Fraction of its Newton step that each inter-bin channel moves per sweep.
_RELAX_RATE = 0.9


@dataclass(frozen=True)
class CondensatePopulation:
    """Packet number densities p(s, eps) for one species.

    table[s, j] is the density of s-fold packets at energies[j]; bin width
    d_eps.  The per-bin mode count g_p(eps) = sum_s table[s, j] * d_eps is
    captured at construction and conserved by all dynamics.  kind tags the
    species (1 or 2) and s_max = table.shape[0] - 1; a Fermi species is
    simply one with s_max = 1.
    """

    kind: int
    energies: np.ndarray
    d_eps: float
    table: np.ndarray
    g_p: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind not in (1, 2):
            raise ValueError(f"kind must be 1 or 2, got {self.kind}")
        energies = np.asarray(self.energies, dtype=float)
        table = np.asarray(self.table, dtype=float)
        if not (np.isfinite(self.d_eps) and self.d_eps > 0):
            raise ValueError(f"d_eps must be positive and finite, got {self.d_eps}")
        if (energies.ndim != 1 or not np.all(np.isfinite(energies))
                or np.any(np.diff(energies) <= 0)):
            raise ValueError("energies must be a finite, strictly increasing 1-d grid")
        if table.ndim != 2 or table.shape[1] != energies.size:
            raise ValueError("table must have shape (s_max + 1, len(energies))")
        if not np.all(np.isfinite(table)) or np.any(table < 0):
            raise ValueError("packet densities must be finite and nonnegative")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "table", table)
        if self.g_p is None:
            object.__setattr__(self, "g_p", table.sum(axis=0) * self.d_eps)
        else:
            object.__setattr__(self, "g_p", np.asarray(self.g_p, dtype=float))

    @property
    def s_max(self) -> int:
        return self.table.shape[0] - 1

    @property
    def n_bins(self) -> int:
        return self.energies.size

    def bin_index(self, eps: float) -> int:
        """Index of the grid bin at energy eps.

        eps must lie within 1e-9 * d_eps of a grid energy; otherwise, and
        for NaN or infinite eps, :class:`OffGrid` is raised.
        """
        j, on_grid = self._bin_indices(np.asarray([eps], dtype=float))
        if not on_grid[0]:
            raise OffGrid(f"energy {eps} is not on the population grid")
        return int(j[0])

    def _bin_indices(self, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest grid index of every energy in eps, and whether each
        lies on the grid (non-finite energies do not; their index is 0)."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.rint((eps - self.energies[0]) / self.d_eps)
        on_grid = np.isfinite(x) & (x >= 0) & (x < self.n_bins)
        j = np.where(on_grid, x, 0).astype(np.intp)
        on_grid &= np.abs(self.energies[j] - eps) <= 1e-9 * self.d_eps
        return j, on_grid

    def check_totals(self) -> None:
        totals = self.table.sum(axis=0) * self.d_eps
        drift = np.max(np.abs(totals - self.g_p) / np.maximum(self.g_p, 1e-300))
        if drift > TOTAL_DRIFT_TOL:
            raise InvariantViolation(
                f"per-bin packet totals drifted by {drift:.3e} (> {TOTAL_DRIFT_TOL:.0e})"
            )


@dataclass(frozen=True)
class CollisionChannel:
    """One admissible exchange: energies, transfer counts, and the orders.

    Species 1 moves n quanta from a packet of order s at eps1_i onto a
    packet of order r at eps1_f; species 2 moves n_prime quanta from order
    s_prime at eps2_i onto order r_prime at eps2_f.  Transfers of zero are
    allowed and make the corresponding side a spectator.
    """

    eps1_i: float
    eps1_f: float
    eps2_i: float
    eps2_f: float
    n: int
    n_prime: int
    s: int
    r: int
    s_prime: int
    r_prime: int

    def __post_init__(self):
        if self.n < 0 or self.n_prime < 0:
            raise ValueError("transfer counts must be nonnegative")
        if min(self.s, self.r, self.s_prime, self.r_prime) < 0:
            raise ValueError("condensation orders must be nonnegative")

    def energy_defect(self) -> float:
        return self.n * (self.eps1_i - self.eps1_f) - self.n_prime * (
            self.eps2_f - self.eps2_i
        )


_ENERGY_FIELDS = ("eps1_i", "eps1_f", "eps2_i", "eps2_f")
_COUNT_FIELDS = ("n", "n_prime", "s", "r", "s_prime", "r_prime")


@dataclass(frozen=True, eq=False)
class ChannelColumns:
    """Many collision channels as columns: row k is one ``CollisionChannel``.

    This is the one channel-set form.  Each field is a 1-d array over the
    channels, named as the ``CollisionChannel`` field it holds: the four
    energies as float64, the transfer counts and orders as intp.  ``len()``
    is the number of channels.  A hand-built set passes one sequence per
    field.  Construction converts the columns and refuses arrays that are
    not 1-d or not of one length, and negative counts or orders, as
    ``CollisionChannel`` does.
    """

    eps1_i: np.ndarray
    eps1_f: np.ndarray
    eps2_i: np.ndarray
    eps2_f: np.ndarray
    n: np.ndarray
    n_prime: np.ndarray
    s: np.ndarray
    r: np.ndarray
    s_prime: np.ndarray
    r_prime: np.ndarray

    def __post_init__(self):
        for names, dtype in ((_ENERGY_FIELDS, np.float64), (_COUNT_FIELDS, np.intp)):
            for name in names:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({getattr(self, name).shape for name in _ENERGY_FIELDS + _COUNT_FIELDS}) != 1 \
                or self.n.ndim != 1:
            raise ValueError("channel columns must be 1-d arrays of one length")
        counts = np.array([getattr(self, name) for name in _COUNT_FIELDS])
        if (counts[:2] < 0).any():
            raise ValueError("transfer counts must be nonnegative")
        if (counts[2:] < 0).any():
            raise ValueError("condensation orders must be nonnegative")

    def __len__(self) -> int:
        return self.n.size


def _ladder_moments(lx: np.ndarray, s_max: int):
    """Normalized ladders exp(s * lx), s = 0..s_max, per column, with
    their mean order and its variance (summed about the mean, which stays
    accurate where a ladder piles up at s = 0 or s = s_max)."""
    s = np.arange(s_max + 1, dtype=float)
    w = np.multiply.outer(s, lx)
    w -= s_max * np.maximum(lx, 0.0)  # each column's largest exponent
    np.exp(w, out=w)
    w /= w.sum(axis=0)
    mean = s @ w
    dev = np.subtract.outer(s, mean) ** 2
    dev *= w
    return w, mean, dev.sum(axis=0)


def stationary_population(g_fn, b: float, c: float, energies,
                          d_eps: float, s_max: int | None = None,
                          kind: int = 1) -> CondensatePopulation:
    """Geometric population p(s, eps) = a(eps) exp(-(b*eps - c) s).

    g_fn(eps) gives the per-bin mode count that fixes the normalization
    a(eps) through sum_s p(s, eps) d_eps = g_p.  b = 1/kT must be
    positive.  s_max = None requests the unbounded Bose ladder: it needs
    b*eps - c > 0 on the whole grid and is realized with a finite table
    whose truncated tail mass is checked against 1e-12.  An empty energy
    grid raises ValueError.
    """
    if not (np.isfinite(b) and np.isfinite(c)):
        raise ValueError(f"b and c must be finite, got b = {b}, c = {c}")
    if b <= 0:
        raise ValueError(f"b = 1/kT must be positive, got {b}")
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise ValueError("the energy grid is empty; a population needs at least one bin")
    exponent = b * energies - c
    if s_max is None:
        if np.any(exponent <= 0):
            raise DivergentSeries(
                "unbounded geometric sum needs b*eps - c > 0 on the grid"
            )
        s_top = DEFAULT_S_MAX
        x = np.exp(-exponent)
        tail = x ** (s_top + 1)
        if np.any(tail > TAIL_MASS_TOL):
            raise DivergentSeries(
                f"geometric tail mass {tail.max():.3e} above {TAIL_MASS_TOL:.0e} "
                f"at the default cap {s_top}; pass an explicit s_max"
            )
    else:
        s_top = int(s_max)
        if s_top < 1:
            raise ValueError("s_max must be at least 1")
    g_p = np.asarray([g_fn(e) for e in energies], dtype=float)
    if not np.all(np.isfinite(g_p)):
        raise ValueError("g_fn must give a finite mode count in every bin")
    w, _, _ = _ladder_moments(-exponent, s_top)
    return CondensatePopulation(kind, energies, d_eps, w * (g_p / d_eps))


def standard_channels(energies, s_max1: int, s_max2: int) -> ChannelColumns:
    """Channel set whose detailed balance pins the full geometric form.

    Within-bin channels (s, s) -> (s-1, s+1) enforce a constant order
    ratio per bin and species.  Inter-bin channels exchange one quantum
    between the species over matching energy windows at every dyadic
    separation h = 1, 2, 4, ...: one family trades over the same window
    (which equilibrates the two species' local slopes) and one over
    adjacent windows (which chains neighboring windows of one species
    together).  The dyadic ladder gives slow long-wavelength imbalances a
    direct relaxation path; with only nearest-neighbor exchanges they die
    out diffusively.

    The channels come as one ``ChannelColumns``, built with numpy, in this
    order: per energy, species 1 at orders 1 .. s_max1 - 1, then species 2
    at orders 1 .. s_max2 - 1; then, for each h, the same-window family and
    the adjacent-window family, each by ascending window.  An empty or
    non-finite energy grid, and s_max1 or s_max2 below 1, raise ValueError.
    """
    grid = np.asarray(energies, dtype=float)
    if grid.size == 0:
        raise ValueError("the energy grid is empty; channels need at least one bin")
    if grid.ndim != 1 or not np.all(np.isfinite(grid)):
        raise ValueError("channel energies must be a finite 1-d grid")
    s_max1, s_max2 = int(s_max1), int(s_max2)
    if min(s_max1, s_max2) < 1:
        raise ValueError("s_max must be at least 1")
    m = grid.size

    # within-bin channels: each bin's block of orders, species 1 then
    # species 2; the other species is a spectator of order 0 at bin 0
    order = np.concatenate([np.arange(1, s_max1), np.arange(1, s_max2)])
    first = np.arange(order.size) < s_max1 - 1
    s1 = order * first
    on_bin = np.array([first, first, ~first, ~first])
    within = ((on_bin[:, None, :] * np.arange(m)[:, None]).reshape(4, -1),
              np.repeat(np.array([first, ~first, s1, s1, order - s1, order - s1])[:, None, :],
                        m, axis=1).reshape(6, -1))

    # inter-bin channels: for each h, m - h same windows j, then m - 2h
    # adjacent ones; species 1 goes j + h -> j, species 2 goes i2 -> i2 + h
    # with i2 = j (same window) or j + h (adjacent)
    h = 1 << np.arange((m - 1).bit_length())
    runs = np.array([m - h, np.maximum(m - 2 * h, 0)]).T.ravel()
    step = np.repeat(np.repeat(h, 2), runs)
    j = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    i2 = j + np.repeat(np.tile([0, 1], h.size), runs) * step
    cross = (np.array([j + step, j, i2, i2 + step]),
             np.repeat(np.array([[1], [1], [1], [0], [1], [0]]), j.size, axis=1))

    bins, counts = (np.concatenate(parts, axis=1) for parts in zip(within, cross))
    return ChannelColumns(*grid[bins], *counts)


def balance_residuals(pop1: CondensatePopulation, pop2: CondensatePopulation,
                      channels: ChannelColumns) -> np.ndarray:
    """Forward product minus reverse product of every channel, in order;
    each is zero at detailed balance.

    The channels are checked first, in row order, and the first one that
    does not fit the populations raises: :class:`OffGrid` if it violates
    energy conservation by more than half a bin width or names an energy
    off its population's grid (NaN and infinities included),
    :class:`OrderOverflow` if a losing slot would drop below order 0 or a
    gaining slot would exceed s_max.
    """
    slots, _ = _pack_channels(pop1, pop2, channels)
    return _residuals(_joint_table(pop1, pop2), slots)


def balance_residual(pop1: CondensatePopulation, pop2: CondensatePopulation,
                     ch: CollisionChannel) -> float:
    """Forward product minus reverse product for one ``CollisionChannel``;
    zero at detailed balance.  Raises as ``balance_residuals`` does."""
    row = ChannelColumns(*([getattr(ch, name)] for name in _ENERGY_FIELDS + _COUNT_FIELDS))
    return float(balance_residuals(pop1, pop2, row)[0])


class QuantaCount(NamedTuple):
    per_bin: np.ndarray
    total: float


def total_quanta(pop: CondensatePopulation) -> QuantaCount:
    """Quanta per bin, sum_s s * p(s, eps) * d_eps, and their total."""
    orders = np.arange(pop.s_max + 1)[:, None]
    per_bin = (orders * pop.table).sum(axis=0) * pop.d_eps
    return QuantaCount(per_bin=per_bin, total=float(per_bin.sum()))


def packet_entropy(pop: CondensatePopulation, k: float = 1.0) -> float:
    """Multinomial packet entropy k * sum_bins [ln g! - sum_s ln(p*d_eps)!].

    Factorials are continued by log-gamma, so fractional densities from
    the relaxation dynamics are admissible.  Refuses populations whose
    per-bin totals have drifted.  Its maximum at fixed invariants is not
    the geometric fixed point of ``relax``; ``stirling_entropy`` is the
    function that ``relax`` raises.
    """
    from scipy.special import gammaln  # scipy loads only where it is used

    pop.check_totals()
    counts = pop.table * pop.d_eps
    per_bin = gammaln(pop.g_p + 1.0) - gammaln(counts + 1.0).sum(axis=0)
    return float(k * per_bin.sum())


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise, with 0 ln 0 = 0."""
    return x * np.log(np.where(x > 0, x, 1.0))


def stirling_entropy(pop: CondensatePopulation, k: float = 1.0) -> float:
    """Stirling packet entropy k * sum_bins [g ln g - sum_s c ln c].

    c = p * d_eps is the packet count of each order and g = sum_s c the
    bin's packet total.  At fixed per-bin packet and quantum totals the
    geometric ladder maximizes it, so it is the H-function of ``relax``.
    Refuses populations whose per-bin totals have drifted.
    """
    pop.check_totals()
    counts = pop.table * pop.d_eps
    per_bin = _xlogx(pop.g_p) - _xlogx(counts).sum(axis=0)
    return float(k * per_bin.sum())


def scramble(pop1: CondensatePopulation, pop2: CondensatePopulation,
             channels: ChannelColumns, rng: np.random.Generator
             ) -> tuple[CondensatePopulation, CondensatePopulation]:
    """Randomly disturb two populations using only admissible channel moves.

    Three rounds pass over the channels.  Every move shifts population
    along one channel (in either direction) by a random fraction, at most
    half, of the smallest slot it draws from, so per-bin packet totals,
    per-species quantum numbers, and the combined energy are all
    conserved exactly; relaxation from the scrambled state must return to
    the same stationary form.  The channels are checked as
    ``balance_residuals`` checks them; the moves follow their row order.
    """
    slots, _ = _pack_channels(pop1, pop2, channels)
    slot_rows = slots.tolist()
    # Python floats on one flat list: the same IEEE operations, in the same
    # order, as numpy scalars, without their per-access cost.
    pq = _joint_table(pop1, pop2).tolist()
    for _ in range(3):
        for f, (t1, g1, t2, g2, t3, g3, t4, g4) in zip(
                rng.uniform(-0.5, 0.5, size=len(channels)).tolist(), zip(*slot_rows)):
            if f >= 0:
                room = min(pq[t1], pq[t2], pq[t3], pq[t4])
            else:
                room = min(pq[g1], pq[g2], pq[g3], pq[g4])
            move = f * room
            pq[t1] -= move
            pq[g1] += move
            pq[t2] -= move
            pq[g2] += move
            pq[t3] -= move
            pq[g3] += move
            pq[t4] -= move
            pq[g4] += move
    p, q = _split(np.maximum(pq, 0.0), pop1, pop2)
    return replace(pop1, table=p), replace(pop2, table=q)


def _joint_table(pop1, pop2) -> np.ndarray:
    """pop1.table and pop2.table flattened end to end: the table that
    channel slots index."""
    return np.concatenate([pop1.table.ravel(), pop2.table.ravel()])


def _split(pq: np.ndarray, pop1, pop2) -> tuple[np.ndarray, np.ndarray]:
    """Views of a joint table shaped as pop1's and pop2's tables."""
    k = pop1.table.size
    return pq[:k].reshape(pop1.table.shape), pq[k:].reshape(pop2.table.shape)


def _pack_channels(pop1, pop2, c: ChannelColumns) -> tuple[np.ndarray, np.ndarray]:
    """The joint-table slots of every channel, after checking them all,
    and which channels are within-bin.

    slots is an (8, channels) intp array of flat indices into
    ``_joint_table(pop1, pop2)``, in (forward, reverse) row pairs:
    (s, eps1_i)/(s - n, eps1_i), (r, eps1_f)/(r + n, eps1_f), then the same
    for species 2 with s_prime, r_prime and n_prime.  A move takes from the
    even rows and gives to the odd ones.  A channel is within-bin when each
    species moves no quanta or keeps them in one bin.

    The first channel in row order that fails a check raises; within a
    channel the checks run as energy conservation, grid membership of
    eps1_i, eps1_f, eps2_i, eps2_f, order underflow, order overflow.
    """
    energies = np.array([c.eps1_i, c.eps1_f, c.eps2_i, c.eps2_f])
    j1, on_grid1 = pop1._bin_indices(energies[:2])
    j2, on_grid2 = pop2._bin_indices(energies[2:])
    on_grid = np.concatenate([on_grid1, on_grid2])   # rows eps1_i .. eps2_f

    # ch.energy_defect() per channel; NaN from non-finite energies is left
    # for the grid test to report
    with np.errstate(over="ignore", invalid="ignore"):
        defect = c.n * (c.eps1_i - c.eps1_f) - c.n_prime * (c.eps2_f - c.eps2_i)
    unbalanced = np.abs(defect) > 0.5 * pop1.d_eps
    off_grid = ~on_grid.all(axis=0)
    underflow = (c.s - c.n < 0) | (c.s_prime - c.n_prime < 0)
    overflow = (c.r + c.n > pop1.s_max) | (c.r_prime + c.n_prime > pop2.s_max)
    bad = unbalanced | off_grid | underflow | overflow
    if np.any(bad):
        k = int(np.argmax(bad))
        if unbalanced[k]:
            raise OffGrid(
                f"channel violates energy conservation by {abs(float(defect[k])):.3g} "
                f"(> half a bin width)"
            )
        if off_grid[k]:
            eps = float(energies[int(np.argmin(on_grid[:, k])), k])
            raise OffGrid(f"energy {eps} is not on the population grid")
        if underflow[k]:
            raise OrderOverflow("losing slot would drop below order 0")
        raise OrderOverflow("gaining slot would exceed s_max")
    orders = np.array([c.s, c.s - c.n, c.r, c.r + c.n, c.s_prime, c.s_prime - c.n_prime,
                       c.r_prime, c.r_prime + c.n_prime])
    bins = np.repeat(np.concatenate([j1, j2]), 2, axis=0)
    width = np.repeat([pop1.n_bins, pop2.n_bins], 4)[:, None]
    offset = np.repeat([0, pop1.table.size], 4)[:, None]
    within = ((c.n == 0) | (j1[0] == j1[1])) & ((c.n_prime == 0) | (j2[0] == j2[1]))
    return offset + orders * width + bins, within


def _products(pq: np.ndarray, slots: np.ndarray):
    values = pq[slots]
    fwd, rev = values[0::2], values[1::2]
    return fwd.prod(axis=0), rev.prod(axis=0), fwd, rev


def _residuals(pq: np.ndarray, slots: np.ndarray) -> np.ndarray:
    forward, reverse, _, _ = _products(pq, slots)
    return forward - reverse


def _newton_steps(pq: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Per-channel move 0.9 * D / H, where H = -dD/d(move).

    H = F * sum(1/p_fwd) + R * sum(1/p_rev) is the sensitivity of the
    imbalance to moving one unit of population, so an isolated update
    shrinks D to a tenth regardless of the channel's scale, and, as the
    step stops short of the full Newton step, no density can be driven
    negative.  Channels whose products both vanish contribute no move.
    """
    forward, reverse, fwd, rev = _products(pq, slots)
    d = forward - reverse
    tiny = 1e-300
    h = forward * (1.0 / np.maximum(fwd, tiny)).sum(axis=0) + \
        reverse * (1.0 / np.maximum(rev, tiny)).sum(axis=0)
    return _RELAX_RATE * d / np.maximum(h, tiny)


def _conflict_free_batches(slots: np.ndarray) -> list[np.ndarray]:
    """Greedy grouping of channels so no two in a batch share a table slot.

    Each channel joins the lowest batch that none of its slots is in yet.
    Within a batch the accumulated update equals applying the channels one
    at a time, so the per-channel Newton step needs no extra damping.
    """
    n_channels = slots.shape[1]
    if n_channels == 0:
        return []
    # A side whose forward and reverse slots coincide moves no quanta; it
    # takes a spare slot of its own channel instead, which nothing else shares.
    spare = 1 + int(slots.max()) + np.arange(n_channels)
    sides = [np.where(slots[k] != slots[k + 1], slots[k:k + 4], spare) for k in (0, 4)]
    # masks[k] has bit b set once batch b holds a channel using slot k
    masks = [0] * (int(spare[-1]) + 1)
    batches: list[list[int]] = []
    for i, row in enumerate(zip(*np.concatenate(sides).tolist())):
        used = 0
        for k in row:
            used |= masks[k]
        free = ~used & (used + 1)        # lowest clear bit
        for k in row:
            masks[k] |= free
        b = free.bit_length() - 1
        if b == len(batches):
            batches.append([])
        batches[b].append(i)
    return [np.asarray(b, dtype=np.intp) for b in batches]


# A move takes from a channel's even slot rows and gives to its odd ones.
_MOVE_SIGNS = np.array([-1.0, 1.0] * 4)


def _apply_moves(pq: np.ndarray, slots: np.ndarray, delta: np.ndarray) -> None:
    """Add every channel's signed move to its slots, slot row by slot row."""
    np.add.at(pq, slots.ravel(), np.multiply.outer(_MOVE_SIGNS, delta).ravel())


def _equilibrate_ladders(table: np.ndarray, lx: np.ndarray,
                         iters: int = 110) -> None:
    """Replace each bin's column by the geometric ladder with the same
    packet and quantum totals (the within-bin detailed-balance form, and
    the per-bin Stirling-entropy maximizer at fixed totals).

    lx holds ln of the per-bin order ratio and is updated in place as a
    warm start for the next sweep.  It is solved per column by Newton's
    method on the mean order, bisecting the bracket |lx| <= 744 as
    fallback (past it the normalized ladder's order-1 slot underflows).
    A column stops once its Newton step is at the roundoff floor of
    ln(ratio), relative to max(1, |lx|), and is not moved again.
    ``iters`` only caps the number of iterations for columns that never
    reach that floor.  Columns with every packet at order 0 (or s_max),
    the limit of a ladder as lx -> -inf (+inf), and columns that already
    sit on their ladder (to 1e-12 relative in every slot) are left
    unchanged.  The others are replaced, and a final exact transfer
    between orders 0 and 1 removes the quantum-number rounding left by
    the ratio solve.
    """
    s_max = table.shape[0] - 1
    s = np.arange(s_max + 1, dtype=float)
    totals = table.sum(axis=0)
    quanta = s @ table
    mean = quanta / np.maximum(totals, 1e-300)

    # The bracket test is inclusive: at the root err is zero or roundoff,
    # the bracket end moves onto lx itself, and a strict test would reject
    # the null step and bisect away from the root.
    lo = np.full(lx.shape, -_LX_BOUND)
    hi = np.full(lx.shape, _LX_BOUND)
    edge = (mean <= 0) | (mean >= s_max)   # no finite root
    active = ~edge
    for _ in range(iters):
        _, f, var = _ladder_moments(lx, s_max)
        err = mean - f
        lo = np.where(err > 0, lx, lo)   # f too small: ratio must grow
        hi = np.where(err > 0, hi, lx)
        newton = lx + err / np.maximum(var, 1e-300)
        inside = (newton >= lo) & (newton <= hi)
        new_lx = np.where(inside, newton, 0.5 * (lo + hi))
        done = inside & (np.abs(newton - lx)
                         <= _LADDER_STEP_FLOOR * np.maximum(1.0, np.abs(lx)))
        lx[active] = new_lx[active]
        active &= ~done
        if not np.any(active):
            break
    w, _, _ = _ladder_moments(lx, s_max)
    ladder = w * totals
    # leave columns that already sit on their ladder, to 1e-12 relative in
    # every slot, untouched, so exact fixed points stay exactly fixed
    # instead of accumulating churn.  One cutoff for the whole table would
    # leave small high-order slots far off their ladder.
    stale = ~edge & np.any(np.abs(ladder - table) > 1e-12 * ladder, axis=0)
    if not np.any(stale):
        return
    table[:, stale] = ladder[:, stale]
    # exact repair of the remaining quantum defect: move population
    # between orders 0 and 1 (changes quanta one-for-one)
    defect = quanta - s @ table
    defect[~stale] = 0.0
    defect = np.clip(defect, -table[1], table[0])
    table[0] -= defect
    table[1] += defect


def _mean_order_lx(table: np.ndarray) -> np.ndarray:
    """ln(m / (1 + m)) per column, m the column's mean order: the log ratio
    of the unbounded geometric ladder with that mean, clipped to the ladder
    solve's bracket.  It starts each ladder solve near its own root, where
    a flat start would need about one Newton step per unit of ln ratio."""
    s = np.arange(table.shape[0], dtype=float)
    mean = (s @ table) / np.maximum(table.sum(axis=0), 1e-300)
    with np.errstate(divide="ignore"):
        lx = np.log(mean) - np.log1p(mean)
    return np.clip(lx, -_LX_BOUND, _LX_BOUND)


class RelaxResult(NamedTuple):
    pop1: CondensatePopulation
    pop2: CondensatePopulation
    sweeps: int
    max_residuals: list
    entropies: list
    quanta: list


def relax(pop1: CondensatePopulation, pop2: CondensatePopulation,
          channels: ChannelColumns, steps: int, seed: int = 0,
          tol: float = 1e-10) -> RelaxResult:
    """Drive both populations to detailed balance along the channels.

    Each sweep makes one pass over the inter-bin channels, moving
    population from the forward to the reverse configuration of each
    channel by 0.9 of its per-channel Newton step on the imbalance
    (channels are processed in conflict-free batches so the moves compose
    like sequential updates), and then equilibrates every bin's
    condensation ladder, which settles all within-bin channels at once.
    Both moves conserve per-bin packet totals and each species' quantum
    number; channel energy conservation then keeps the combined energy
    fixed, so any admissible start relaxes to the unique geometric
    stationary form with those invariants (the one ``equilibrium`` solves
    for).

    The per-sweep maximum |imbalance| over all supplied channels is
    recorded together with the Stirling packet entropy (the H-function,
    see ``stirling_entropy``) and the total quantum number; sweeps stop
    once the residual falls below tol, and exceeding ``steps`` raises
    :class:`NonConvergence` carrying the partial result in its ``result``
    attribute.  The seed only shuffles channel processing order; the
    fixed point is seed-independent.  The channels are checked as
    ``balance_residuals`` checks them.
    """
    if steps < 1:
        raise ValueError("relax needs at least one sweep")
    if not channels:
        raise ValueError("relax needs at least one channel")
    rng = np.random.default_rng(seed)
    slots, within = _pack_channels(pop1, pop2, channels)
    order = rng.permutation(len(channels))
    slots, within = slots[:, order], within[order]
    inter = slots[:, ~within]
    batches = [inter[:, idx] for idx in _conflict_free_batches(inter)]

    pq = _joint_table(pop1, pop2)
    p, q = _split(pq, pop1, pop2)
    lx1 = _mean_order_lx(p)
    lx2 = _mean_order_lx(q)

    max_residuals: list[float] = []
    entropies: list[float] = []
    quanta: list[float] = []
    new1, new2 = pop1, pop2
    sweeps = 0
    for sweep in range(1, steps + 1):
        for batch in batches:
            _apply_moves(pq, batch, _newton_steps(pq, batch))
        _equilibrate_ladders(p, lx1)
        _equilibrate_ladders(q, lx2)
        np.maximum(pq, 0.0, out=pq)

        sweeps = sweep
        residual = float(np.max(np.abs(_residuals(pq, slots))))
        max_residuals.append(residual)
        new1 = replace(pop1, table=p.copy(), g_p=pop1.g_p)
        new2 = replace(pop2, table=q.copy(), g_p=pop2.g_p)
        entropies.append(stirling_entropy(new1) + stirling_entropy(new2))
        quanta.append(total_quanta(new1).total + total_quanta(new2).total)
        if residual <= tol:
            return RelaxResult(new1, new2, sweeps, max_residuals, entropies, quanta)

    result = RelaxResult(new1, new2, sweeps, max_residuals, entropies, quanta)
    err = NonConvergence(
        f"max residual {max_residuals[-1]:.3e} still above {tol:.0e} "
        f"after {steps} sweeps"
    )
    err.result = result
    raise err


_EQUILIBRIUM_MAX_ITER = 100
# Largest change of any ladder's log ratio c_k - b*eps in one ``equilibrium``
# step.  Far from the root a ladder piles up at s = 0 or s = s_max, its
# variance collapses and the raw Newton step runs to |log ratio| ~ 1e3,
# where every variance underflows and the Jacobian is singular.
_EQUILIBRIUM_MAX_MOVE = 8.0


class Equilibrium(NamedTuple):
    b: float
    c1: float
    c2: float
    pop1: CondensatePopulation
    pop2: CondensatePopulation


def equilibrium(pop1: CondensatePopulation, pop2: CondensatePopulation) -> Equilibrium:
    """The fixed point of ``relax`` under ``standard_channels``, solved directly.

    It is p(s, eps) proportional to exp(-(b*eps - c_k) s) for species k,
    with each bin's packet total g_p.  (b, c1, c2) are fixed by the three
    invariants of the kinetics: each species' total quanta and the
    combined energy.  They are solved by Newton's method from (1, 0, 0),
    with the 3x3 Jacobian built from sums of g_p * var over the ladders.
    Each step is cut so that no ladder's log ratio moves by more than 8,
    then halved until the scaled residual falls.  The solve stops
    once a step is at the roundoff floor of (b, c1, c2), or no step along
    the Newton direction lowers a residual already at roundoff; otherwise
    it raises :class:`NonConvergence` after 100 iterations.
    Needs at least two bins, which separate b from the c_k.
    """
    pops = (pop1, pop2)
    for pop in pops:
        pop.check_totals()
        if pop.n_bins < 2:
            raise ValueError("equilibrium needs at least two energy bins")
    quanta = [total_quanta(pop).per_bin for pop in pops]
    target = np.array([quanta[0].sum(), quanta[1].sum(),
                       sum((qb * pop.energies).sum() for qb, pop in zip(quanta, pops))])
    scale = np.array([pop1.g_p.sum(), pop2.g_p.sum(),
                      sum((pop.g_p * pop.energies).sum() for pop in pops)])

    def solve_point(x):
        b, cs = x[0], x[1:]
        resid = -target.copy()
        jac = np.zeros((3, 3))
        for k, (pop, c) in enumerate(zip(pops, cs)):
            eps = pop.energies
            _, mean, var = _ladder_moments(c - b * eps, pop.s_max)
            gm, gv = pop.g_p * mean, pop.g_p * var
            resid[k] += gm.sum()
            resid[2] += (gm * eps).sum()
            jac[k, 0] = -(gv * eps).sum()
            jac[k, k + 1] = gv.sum()
            jac[2, 0] -= (gv * eps * eps).sum()
            jac[2, k + 1] = (gv * eps).sum()
        return resid, jac

    def scaled(resid):
        return float(np.max(np.abs(resid) / np.maximum(scale, 1e-300)))

    x = np.array([1.0, 0.0, 0.0])
    resid, jac = solve_point(x)
    for _ in range(_EQUILIBRIUM_MAX_ITER):
        step = np.linalg.solve(jac, -resid)
        move = max(float(np.max(np.abs(dc - step[0] * pop.energies)))
                   for pop, dc in zip(pops, step[1:]))
        if move > _EQUILIBRIUM_MAX_MOVE:
            step *= _EQUILIBRIUM_MAX_MOVE / move
        t = 1.0
        while t > 2.0 ** -40:
            trial = x + t * step
            trial_resid, trial_jac = solve_point(trial)
            if scaled(trial_resid) < scaled(resid):
                break
            t *= 0.5
        else:
            if scaled(resid) > 1e-12:
                raise NonConvergence(
                    f"equilibrium stalled at scaled residual {scaled(resid):.3e}")
            break
        done = np.all(np.abs(t * step) <= _LADDER_STEP_FLOOR * np.maximum(1.0, np.abs(x)))
        x, resid, jac = trial, trial_resid, trial_jac
        if done:
            break
    else:
        raise NonConvergence(
            f"equilibrium residual {scaled(resid):.3e} after "
            f"{_EQUILIBRIUM_MAX_ITER} iterations")

    tables = []
    for pop, c in zip(pops, x[1:]):
        w, _, _ = _ladder_moments(c - x[0] * pop.energies, pop.s_max)
        tables.append(replace(pop, table=w * (pop.g_p / pop.d_eps)))
    return Equilibrium(float(x[0]), float(x[1]), float(x[2]), *tables)
