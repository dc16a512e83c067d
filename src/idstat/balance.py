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
Each sweep alternates two balance-respecting moves: population shifts
along every inter-bin channel proportional to its imbalance (a damped
per-channel Newton step), and full equilibration of each bin's
condensation ladder at fixed per-bin packet and quantum numbers (the
limit of iterating the within-bin channels, which every within-bin
channel balances identically).  The sweep conserves per-bin packet
totals, each species' total quantum number, and (through channel energy
conservation) the combined energy.  The packet entropy S is
nondecreasing along the trajectory up to roundoff: no sweep lowers it by
more than 16 * eps * |S| (eps the double-precision machine epsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

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
    "random_population",
    "stationary_population",
    "standard_channels",
    "scramble",
    "balance_residual",
    "total_quanta",
    "packet_entropy",
    "RelaxResult",
    "relax",
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
        if self.d_eps <= 0:
            raise ValueError("d_eps must be positive")
        if energies.ndim != 1 or np.any(np.diff(energies) <= 0):
            raise ValueError("energies must be a strictly increasing 1-d grid")
        if table.ndim != 2 or table.shape[1] != energies.size:
            raise ValueError("table must have shape (s_max + 1, len(energies))")
        if np.any(table < 0):
            raise ValueError("packet densities must be nonnegative")
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
        j = int(round((eps - float(self.energies[0])) / self.d_eps))
        if not 0 <= j < self.n_bins or abs(self.energies[j] - eps) > 1e-9 * self.d_eps:
            raise OffGrid(f"energy {eps} is not on the population grid")
        return j

    def check_totals(self, tol: float = TOTAL_DRIFT_TOL) -> None:
        totals = self.table.sum(axis=0) * self.d_eps
        drift = np.max(np.abs(totals - self.g_p) / np.maximum(self.g_p, 1e-300))
        if drift > tol:
            raise InvariantViolation(
                f"per-bin packet totals drifted by {drift:.3e} (> {tol:.0e})"
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


def random_population(kind: int, energies, d_eps: float, g_p, s_max: int,
                      rng: np.random.Generator, occupied: int | None = None
                      ) -> CondensatePopulation:
    """Random admissible population: per bin, g_p packets spread over orders.

    occupied limits the randomly filled orders to 0..occupied (weighting
    the start toward low condensation); the remaining orders start empty.
    """
    energies = np.asarray(energies, dtype=float)
    g_p = np.broadcast_to(np.asarray(g_p, dtype=float), energies.shape)
    top = s_max if occupied is None else min(occupied, s_max)
    table = np.zeros((s_max + 1, energies.size))
    for j in range(energies.size):
        weights = rng.dirichlet(np.ones(top + 1))
        table[: top + 1, j] = weights * g_p[j] / d_eps
    return CondensatePopulation(kind, energies, d_eps, table)


def stationary_population(g_fn, b: float, c: float, energies,
                          d_eps: float, s_max: int | None = None,
                          kind: int = 1) -> CondensatePopulation:
    """Geometric population p(s, eps) = a(eps) exp(-(b*eps - c) s).

    g_fn(eps) gives the per-bin mode count that fixes the normalization
    a(eps) through sum_s p(s, eps) d_eps = g_p.  b = 1/kT must be
    positive.  s_max = None requests the unbounded Bose ladder: it needs
    b*eps - c > 0 on the whole grid and is realized with a finite table
    whose truncated tail mass is checked against 1e-12.
    """
    if b <= 0:
        raise ValueError(f"b = 1/kT must be positive, got {b}")
    energies = np.asarray(energies, dtype=float)
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
    orders = np.arange(s_top + 1)[:, None]
    shape = np.exp(-exponent[None, :] * orders)
    norm = shape.sum(axis=0) * d_eps
    table = shape * (g_p / norm)[None, :]
    return CondensatePopulation(kind, energies, d_eps, table)


def standard_channels(energies, s_max1: int, s_max2: int) -> list[CollisionChannel]:
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
    """
    energies = np.asarray(energies, dtype=float)
    e0 = float(energies[0])
    m = energies.size
    channels: list[CollisionChannel] = []
    for e in energies:
        for s in range(1, s_max1):
            channels.append(CollisionChannel(
                eps1_i=float(e), eps1_f=float(e), eps2_i=e0, eps2_f=e0,
                n=1, n_prime=0, s=s, r=s, s_prime=0, r_prime=0,
            ))
        for s in range(1, s_max2):
            channels.append(CollisionChannel(
                eps1_i=e0, eps1_f=e0, eps2_i=float(e), eps2_f=float(e),
                n=0, n_prime=1, s=0, r=0, s_prime=s, r_prime=s,
            ))

    def cross(i1: int, f1: int, i2: int, f2: int) -> CollisionChannel:
        return CollisionChannel(
            eps1_i=float(energies[i1]), eps1_f=float(energies[f1]),
            eps2_i=float(energies[i2]), eps2_f=float(energies[f2]),
            n=1, n_prime=1, s=1, r=0, s_prime=1, r_prime=0,
        )

    h = 1
    while h < m:
        for j in range(m - h):
            channels.append(cross(j + h, j, j, j + h))
        for j in range(m - 2 * h):
            channels.append(cross(j + h, j, j + h, j + 2 * h))
        h *= 2
    return channels


def _channel_indices(pop1: CondensatePopulation, pop2: CondensatePopulation,
                     ch: CollisionChannel) -> tuple[int, int, int, int]:
    defect = abs(ch.energy_defect())
    if defect > 0.5 * pop1.d_eps:
        raise OffGrid(
            f"channel violates energy conservation by {defect:.3g} "
            f"(> half a bin width)"
        )
    j1i = pop1.bin_index(ch.eps1_i)
    j1f = pop1.bin_index(ch.eps1_f)
    j2i = pop2.bin_index(ch.eps2_i)
    j2f = pop2.bin_index(ch.eps2_f)
    if ch.s - ch.n < 0 or ch.s_prime - ch.n_prime < 0:
        raise OrderOverflow("losing slot would drop below order 0")
    if ch.r + ch.n > pop1.s_max or ch.r_prime + ch.n_prime > pop2.s_max:
        raise OrderOverflow("gaining slot would exceed s_max")
    return j1i, j1f, j2i, j2f


def balance_residual(pop1: CondensatePopulation, pop2: CondensatePopulation,
                     ch: CollisionChannel) -> float:
    """Forward product minus reverse product for one channel; zero at
    detailed balance."""
    j1i, j1f, j2i, j2f = _channel_indices(pop1, pop2, ch)
    p, q = pop1.table, pop2.table
    forward = (p[ch.s, j1i] * p[ch.r, j1f]
               * q[ch.s_prime, j2i] * q[ch.r_prime, j2f])
    reverse = (p[ch.s - ch.n, j1i] * p[ch.r + ch.n, j1f]
               * q[ch.s_prime - ch.n_prime, j2i]
               * q[ch.r_prime + ch.n_prime, j2f])
    return float(forward - reverse)


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
    per-bin totals have drifted.
    """
    from scipy.special import gammaln  # scipy loads only where it is used

    pop.check_totals()
    counts = pop.table * pop.d_eps
    per_bin = gammaln(pop.g_p + 1.0) - gammaln(counts + 1.0).sum(axis=0)
    return float(k * per_bin.sum())


def scramble(pop1: CondensatePopulation, pop2: CondensatePopulation,
             channels: Sequence[CollisionChannel], rng: np.random.Generator,
             rounds: int = 3, strength: float = 0.5
             ) -> tuple[CondensatePopulation, CondensatePopulation]:
    """Randomly disturb two populations using only admissible channel moves.

    Every move shifts population along one channel (in either direction)
    by a random fraction of what positivity allows, so per-bin packet
    totals, per-species quantum numbers, and the combined energy are all
    conserved exactly; relaxation from the scrambled state must return to
    the same stationary form.
    """
    if not 0 < strength <= 0.5:
        raise ValueError("strength must be in (0, 0.5] to preserve positivity")
    p = pop1.table.copy()
    q = pop2.table.copy()
    for _ in range(rounds):
        for ch in channels:
            j1i, j1f, j2i, j2f = _channel_indices(pop1, pop2, ch)
            f = rng.uniform(-strength, strength)
            if f >= 0:
                room = min(p[ch.s, j1i], p[ch.r, j1f],
                           q[ch.s_prime, j2i], q[ch.r_prime, j2f])
            else:
                room = min(p[ch.s - ch.n, j1i], p[ch.r + ch.n, j1f],
                           q[ch.s_prime - ch.n_prime, j2i],
                           q[ch.r_prime + ch.n_prime, j2f])
            move = f * room
            p[ch.s, j1i] -= move
            p[ch.s - ch.n, j1i] += move
            p[ch.r, j1f] -= move
            p[ch.r + ch.n, j1f] += move
            q[ch.s_prime, j2i] -= move
            q[ch.s_prime - ch.n_prime, j2i] += move
            q[ch.r_prime, j2f] -= move
            q[ch.r_prime + ch.n_prime, j2f] += move
    return (replace(pop1, table=np.maximum(p, 0.0)),
            replace(pop2, table=np.maximum(q, 0.0)))


class _ChannelArrays(NamedTuple):
    j1i: np.ndarray
    j1f: np.ndarray
    j2i: np.ndarray
    j2f: np.ndarray
    s: np.ndarray
    r: np.ndarray
    sp: np.ndarray
    rp: np.ndarray
    n: np.ndarray
    npr: np.ndarray

    def take(self, idx) -> "_ChannelArrays":
        return _ChannelArrays(*(col[idx] for col in self))


def _pack_channels(pop1, pop2, channels: Sequence[CollisionChannel]) -> _ChannelArrays:
    cols = []
    for ch in channels:
        j1i, j1f, j2i, j2f = _channel_indices(pop1, pop2, ch)
        cols.append((j1i, j1f, j2i, j2f, ch.s, ch.r, ch.s_prime, ch.r_prime,
                     ch.n, ch.n_prime))
    arr = np.asarray(cols, dtype=np.intp).reshape(len(cols), 10).T
    return _ChannelArrays(*arr)


def _products(p: np.ndarray, q: np.ndarray, ca: _ChannelArrays):
    fwd = (p[ca.s, ca.j1i], p[ca.r, ca.j1f],
           q[ca.sp, ca.j2i], q[ca.rp, ca.j2f])
    rev = (p[ca.s - ca.n, ca.j1i], p[ca.r + ca.n, ca.j1f],
           q[ca.sp - ca.npr, ca.j2i], q[ca.rp + ca.npr, ca.j2f])
    forward = fwd[0] * fwd[1] * fwd[2] * fwd[3]
    reverse = rev[0] * rev[1] * rev[2] * rev[3]
    return forward, reverse, fwd, rev


def _residuals(p: np.ndarray, q: np.ndarray, ca: _ChannelArrays) -> np.ndarray:
    forward, reverse, _, _ = _products(p, q, ca)
    return forward - reverse


def _newton_steps(p: np.ndarray, q: np.ndarray, ca: _ChannelArrays,
                  rate: float) -> np.ndarray:
    """Per-channel move rate * D / H, where H = -dD/d(move).

    H = F * sum(1/p_fwd) + R * sum(1/p_rev) is the sensitivity of the
    imbalance to moving one unit of population, so an isolated update
    shrinks D by (1 - rate) regardless of the channel's scale, and for
    rate < 1 no density can be driven negative.  Channels whose products
    both vanish contribute no move.
    """
    forward, reverse, fwd, rev = _products(p, q, ca)
    d = forward - reverse
    tiny = 1e-300
    h = forward * sum(1.0 / np.maximum(f, tiny) for f in fwd) + \
        reverse * sum(1.0 / np.maximum(r, tiny) for r in rev)
    return rate * d / np.maximum(h, tiny)


def _is_within_bin(ca: _ChannelArrays) -> np.ndarray:
    side1 = (ca.n == 0) | (ca.j1i == ca.j1f)
    side2 = (ca.npr == 0) | (ca.j2i == ca.j2f)
    return side1 & side2


def _conflict_free_batches(ca: _ChannelArrays, n_channels: int) -> list[np.ndarray]:
    """Greedy grouping of channels so no two in a batch share a table slot.

    Within a batch the accumulated update equals applying the channels one
    at a time, so the per-channel Newton step needs no extra damping.
    """
    batches: list[list[int]] = []
    batch_slots: list[set] = []
    for i in range(n_channels):
        slots = set()
        if ca.n[i] > 0:
            slots.update([(1, int(ca.s[i]), int(ca.j1i[i])),
                          (1, int(ca.s[i] - ca.n[i]), int(ca.j1i[i])),
                          (1, int(ca.r[i]), int(ca.j1f[i])),
                          (1, int(ca.r[i] + ca.n[i]), int(ca.j1f[i]))])
        if ca.npr[i] > 0:
            slots.update([(2, int(ca.sp[i]), int(ca.j2i[i])),
                          (2, int(ca.sp[i] - ca.npr[i]), int(ca.j2i[i])),
                          (2, int(ca.rp[i]), int(ca.j2f[i])),
                          (2, int(ca.rp[i] + ca.npr[i]), int(ca.j2f[i]))])
        for b, used in zip(batches, batch_slots):
            if not (slots & used):
                b.append(i)
                used |= slots
                break
        else:
            batches.append([i])
            batch_slots.append(set(slots))
    return [np.asarray(b, dtype=np.intp) for b in batches]


def _apply_moves(p, q, ca: _ChannelArrays, delta: np.ndarray) -> None:
    np.add.at(p, (ca.s, ca.j1i), -delta)
    np.add.at(p, (ca.s - ca.n, ca.j1i), delta)
    np.add.at(p, (ca.r, ca.j1f), -delta)
    np.add.at(p, (ca.r + ca.n, ca.j1f), delta)
    np.add.at(q, (ca.sp, ca.j2i), -delta)
    np.add.at(q, (ca.sp - ca.npr, ca.j2i), delta)
    np.add.at(q, (ca.rp, ca.j2f), -delta)
    np.add.at(q, (ca.rp + ca.npr, ca.j2f), delta)


def _equilibrate_ladders(table: np.ndarray, lx: np.ndarray,
                         iters: int = 110) -> None:
    """Replace each bin's column by the geometric ladder with the same
    packet and quantum totals (the within-bin detailed-balance form, and
    the per-bin entropy maximizer at fixed totals).

    lx holds ln of the per-bin order ratio and is updated in place as a
    warm start for the next sweep.  It is solved per column by a
    safeguarded Newton iteration on the mean order; a column stops once
    its Newton step is at the roundoff floor of ln(ratio), relative to
    max(1, |lx|), and is not moved again.  ``iters`` only caps the number
    of iterations for columns that never reach that floor.  A column that
    already sits on its ladder (to 1e-12 relative in every slot) is left
    unchanged; the others are replaced,
    and a final exact transfer between orders 0 and 1 removes the
    quantum-number rounding left by the ratio solve.
    """
    s_max = table.shape[0] - 1
    s = np.arange(s_max + 1, dtype=float)[:, None]
    totals = table.sum(axis=0)
    quanta = (s * table).sum(axis=0)
    mean = np.clip(quanta / np.maximum(totals, 1e-300), 1e-13, s_max - 1e-13)

    # safeguarded Newton on the monotone mean-order equation, bisection
    # bracket as fallback.  The bracket test is inclusive: at the root err
    # is zero or roundoff, the bracket end moves onto lx itself, and a
    # strict test would reject the null step and bisect toward +-50.
    lo = np.full(lx.shape, -50.0)
    hi = np.full(lx.shape, 50.0)
    np.clip(lx, -49.0, 49.0, out=lx)
    active = np.ones(lx.shape, dtype=bool)
    for _ in range(iters):
        m = s * lx[None, :]
        m -= m.max(axis=0, keepdims=True)
        w = np.exp(m)
        w_sum = w.sum(axis=0)
        f = (s * w).sum(axis=0) / w_sum
        var = (s * s * w).sum(axis=0) / w_sum - f * f
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
    m = s * lx[None, :]
    m -= m.max(axis=0, keepdims=True)
    w = np.exp(m)
    ladder = w * (totals / w.sum(axis=0))[None, :]
    # leave columns that already sit on their ladder, to 1e-12 relative in
    # every slot, untouched, so exact fixed points stay exactly fixed
    # instead of accumulating churn.  One cutoff for the whole table would
    # leave small high-order slots far off their ladder.
    stale = np.any(np.abs(ladder - table) > 1e-12 * ladder, axis=0)
    if not np.any(stale):
        return
    table[:, stale] = ladder[:, stale]
    # exact repair of the remaining quantum defect: move population
    # between orders 0 and 1 (changes quanta one-for-one)
    defect = quanta - (s * table).sum(axis=0)
    defect[~stale] = 0.0
    defect = np.clip(defect, -table[1], table[0])
    table[0] -= defect
    table[1] += defect


class RelaxResult(NamedTuple):
    pop1: CondensatePopulation
    pop2: CondensatePopulation
    sweeps: int
    max_residuals: list
    entropies: list
    quanta: list


def relax(pop1: CondensatePopulation, pop2: CondensatePopulation,
          channels: Sequence[CollisionChannel], steps: int, seed: int = 0,
          rate: float = 0.1, tol: float = 1e-10,
          inner: int = 4) -> RelaxResult:
    """Drive both populations to detailed balance along the channels.

    Each sweep makes ``inner`` passes over the inter-bin channels, moving
    population from the forward to the reverse configuration of each
    channel proportionally to its imbalance (per-channel Newton scale,
    damped by ``rate``; channels are processed in conflict-free batches so
    the moves compose like sequential updates), and then equilibrates
    every bin's condensation ladder, which settles all within-bin channels
    at once.  Both moves conserve per-bin packet totals and each species'
    quantum number; channel energy conservation then keeps the combined
    energy fixed, so any admissible start relaxes to the unique geometric
    stationary form with those invariants.

    The per-sweep maximum |imbalance| over all supplied channels is
    recorded together with the packet entropy and the total quantum
    number; sweeps stop once the residual falls below tol, and exceeding
    ``steps`` raises :class:`NonConvergence` carrying the partial result
    in its ``result`` attribute.  The seed only shuffles channel
    processing order; the fixed point is seed-independent.
    """
    if steps < 1:
        raise ValueError("relax needs at least one sweep")
    if not channels:
        raise ValueError("relax needs at least one channel")
    if not 0 < rate < 1:
        raise ValueError("rate must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    ca_all = _pack_channels(pop1, pop2, channels)
    order = rng.permutation(len(channels))
    ca_all = ca_all.take(order)
    within = _is_within_bin(ca_all)
    ca_inter = ca_all.take(np.flatnonzero(~within))
    batches = [ca_inter.take(idx) for idx in
               _conflict_free_batches(ca_inter, int((~within).sum()))]

    p = pop1.table.copy()
    q = pop2.table.copy()
    lx1 = np.full(pop1.n_bins, -0.5)
    lx2 = np.full(pop2.n_bins, -0.5)

    max_residuals: list[float] = []
    entropies: list[float] = []
    quanta: list[float] = []
    new1, new2 = pop1, pop2
    sweeps = 0
    for sweep in range(1, steps + 1):
        for _ in range(inner - 1):
            for ca_b in batches:
                delta = _newton_steps(p, q, ca_b, rate)
                _apply_moves(p, q, ca_b, delta)
            # a short re-equilibration lets the next pass transport more:
            # the exchange orders saturate against a stale ladder
            _equilibrate_ladders(p, lx1, iters=40)
            _equilibrate_ladders(q, lx2, iters=40)
        for ca_b in batches:
            delta = _newton_steps(p, q, ca_b, rate)
            _apply_moves(p, q, ca_b, delta)
        _equilibrate_ladders(p, lx1)
        _equilibrate_ladders(q, lx2)
        np.maximum(p, 0.0, out=p)
        np.maximum(q, 0.0, out=q)

        sweeps = sweep
        residual = float(np.max(np.abs(_residuals(p, q, ca_all))))
        max_residuals.append(residual)
        new1 = replace(pop1, table=p.copy(), g_p=pop1.g_p)
        new2 = replace(pop2, table=q.copy(), g_p=pop2.g_p)
        entropies.append(packet_entropy(new1) + packet_entropy(new2))
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
