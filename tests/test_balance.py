import dataclasses
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from idstat import balance as bal
from idstat import distributions as dist
from idstat.errors import (
    DivergentSeries,
    InvariantViolation,
    NonConvergence,
    OffGrid,
    OrderOverflow,
)

BINS = 8
ENERGIES = np.arange(1.0, BINS + 1.0)
G0 = 6.0
SMAX = 40
CHANNEL_FIELDS = [f.name for f in dataclasses.fields(bal.CollisionChannel)]


def g_const(eps):
    return G0


def stationary_pair(b=0.4, c=0.1, s_max=SMAX):
    pop1 = bal.stationary_population(g_const, b, c, ENERGIES, 1.0, s_max=s_max, kind=1)
    pop2 = bal.stationary_population(g_const, b, c, ENERGIES, 1.0, s_max=s_max, kind=2)
    return pop1, pop2


def test_stationary_population_normalization():
    pop = bal.stationary_population(g_const, 0.4, 0.1, ENERGIES, 1.0, s_max=SMAX)
    totals = pop.table.sum(axis=0) * pop.d_eps
    assert np.allclose(totals, G0, rtol=1e-12)


def test_stationary_bose_mean_quanta_matches_distribution():
    # unbounded ladder: mean quanta per bin = g / (exp(b*eps - c) - 1)
    b, c = 0.7, 0.2
    pop = bal.stationary_population(g_const, b, c, ENERGIES, 1.0, s_max=None)
    quanta = bal.total_quanta(pop).per_bin
    expected = G0 / np.expm1(b * ENERGIES - c)
    assert np.allclose(quanta, expected, rtol=1e-12, atol=1e-12)


def test_stationary_fermi_mean_quanta():
    # s_max = 1: mean quanta per bin = g / (exp(b*eps - c) + 1)
    b, c = 0.7, 0.2
    pop = bal.stationary_population(g_const, b, c, ENERGIES, 1.0, s_max=1)
    quanta = bal.total_quanta(pop).per_bin
    expected = G0 / (np.exp(b * ENERGIES - c) + 1.0)
    assert np.allclose(quanta, expected, rtol=1e-12)


def test_stationary_boltzmann_tail():
    # c -> -inf: occupation tends to g * exp(-(b*eps - c))
    b, c = 1.0, -30.0
    pop = bal.stationary_population(g_const, b, c, ENERGIES, 1.0, s_max=None)
    quanta = bal.total_quanta(pop).per_bin
    expected = G0 * np.exp(-(b * ENERGIES - c))
    assert np.allclose(quanta, expected, rtol=1e-8)


def test_stationary_divergent_series():
    with pytest.raises(DivergentSeries):
        bal.stationary_population(g_const, 0.05, 0.9, ENERGIES, 1.0, s_max=None)
    with pytest.raises(ValueError):
        bal.stationary_population(g_const, -1.0, 0.0, ENERGIES, 1.0, s_max=8)


def test_balance_residual_zero_at_stationary():
    pop1, pop2 = stationary_pair()
    channels = bal.standard_channels(ENERGIES, SMAX, SMAX)
    residuals = bal.balance_residuals(pop1, pop2, channels)
    assert np.max(np.abs(residuals)) < 1e-12
    assert residuals.tolist() == [reference_residual(pop1, pop2, ch) for ch in
                                  reference_standard_channels(ENERGIES, SMAX, SMAX)]


def test_balance_residual_identity_channel():
    pop1, pop2 = stationary_pair()
    ch = bal.CollisionChannel(
        eps1_i=2.0, eps1_f=3.0, eps2_i=1.0, eps2_f=4.0,
        n=0, n_prime=0, s=1, r=1, s_prime=1, r_prime=1)
    assert bal.balance_residual(pop1, pop2, ch) == 0.0


def test_balance_residual_detects_perturbation():
    pop1, pop2 = stationary_pair()
    table = pop1.table.copy()
    table[1, 2] *= 1.1
    perturbed = bal.CondensatePopulation(1, ENERGIES, 1.0, table)
    ch = bal.CollisionChannel(
        eps1_i=3.0, eps1_f=3.0, eps2_i=1.0, eps2_f=1.0,
        n=1, n_prime=0, s=1, r=1, s_prime=0, r_prime=0)
    assert abs(bal.balance_residual(perturbed, pop2, ch)) > 1e-3


# Channels that do not fit stationary_pair(): (error, fields), each failing
# the check named; the last three fail two checks and must report the first
# in the order energy defect, off-grid, order underflow, order overflow.
BAD_CHANNELS = [
    (OffGrid, dict(eps1_i=2.5, eps1_f=2.5)),                        # off grid
    (OffGrid, dict(eps1_i=4.0, eps1_f=1.0, eps2_f=2.0, n_prime=1,   # defect
                   r=0, s_prime=1)),
    (OrderOverflow, dict(s=SMAX, r=SMAX)),                          # overflow
    (OrderOverflow, dict(n=2, r=3)),                                # underflow
    (OffGrid, dict(eps1_i=4.5, eps1_f=1.0, eps2_f=2.0, n_prime=1,   # defect, off grid
                   r=0, s_prime=1)),
    (OffGrid, dict(eps2_f=99.0, n=2)),                              # off grid, underflow
    (OrderOverflow, dict(n=2, s=1, r=SMAX)),                        # underflow, overflow
]


def channel(**fields):
    """A within-bin species-1 channel at eps 2, with the given fields changed."""
    base = dict(eps1_i=2.0, eps1_f=2.0, eps2_i=1.0, eps2_f=1.0,
                n=1, n_prime=0, s=1, r=1, s_prime=0, r_prime=0)
    return bal.CollisionChannel(**{**base, **fields})


def reference_bin_index(pop, eps):
    j = int(round((eps - float(pop.energies[0])) / pop.d_eps))
    if not 0 <= j < pop.n_bins or abs(pop.energies[j] - eps) > 1e-9 * pop.d_eps:
        raise OffGrid(f"energy {eps} is not on the population grid")
    return j


def reference_channel_indices(pop1, pop2, ch):
    """Bin indices of one channel, checked one field at a time."""
    defect = abs(ch.energy_defect())
    if defect > 0.5 * pop1.d_eps:
        raise OffGrid(
            f"channel violates energy conservation by {defect:.3g} "
            f"(> half a bin width)"
        )
    j1i = reference_bin_index(pop1, ch.eps1_i)
    j1f = reference_bin_index(pop1, ch.eps1_f)
    j2i = reference_bin_index(pop2, ch.eps2_i)
    j2f = reference_bin_index(pop2, ch.eps2_f)
    if ch.s - ch.n < 0 or ch.s_prime - ch.n_prime < 0:
        raise OrderOverflow("losing slot would drop below order 0")
    if ch.r + ch.n > pop1.s_max or ch.r_prime + ch.n_prime > pop2.s_max:
        raise OrderOverflow("gaining slot would exceed s_max")
    return j1i, j1f, j2i, j2f


def reference_rows(pop1, pop2, channels):
    """(j1i, j1f, j2i, j2f, s, r, sp, rp, n, npr) of each channel."""
    return [reference_channel_indices(pop1, pop2, ch)
            + (ch.s, ch.r, ch.s_prime, ch.r_prime, ch.n, ch.n_prime) for ch in channels]


def reference_slots(pop1, pop2, rows):
    """The (8, channels) joint-table slots of the rows, one channel at a
    time: (order, bin) of species 1 at order * bins1 + bin, of species 2
    after all of species 1's, in (forward, reverse) pairs."""
    m1, m2, offset = pop1.n_bins, pop2.n_bins, pop1.table.size
    slots = [[s * m1 + j1i, (s - n) * m1 + j1i, r * m1 + j1f, (r + n) * m1 + j1f,
              offset + sp * m2 + j2i, offset + (sp - npr) * m2 + j2i,
              offset + rp * m2 + j2f, offset + (rp + npr) * m2 + j2f]
             for j1i, j1f, j2i, j2f, s, r, sp, rp, n, npr in rows]
    return np.array(slots, dtype=np.intp).reshape(-1, 8).T.copy()


def reference_within_bin(row):
    j1i, j1f, j2i, j2f, _, _, _, _, n, npr = row
    return (n == 0 or j1i == j1f) and (npr == 0 or j2i == j2f)


def reference_residual(pop1, pop2, ch):
    j1i, j1f, j2i, j2f = reference_channel_indices(pop1, pop2, ch)
    p, q = pop1.table, pop2.table
    forward = (p[ch.s, j1i] * p[ch.r, j1f]
               * q[ch.s_prime, j2i] * q[ch.r_prime, j2f])
    reverse = (p[ch.s - ch.n, j1i] * p[ch.r + ch.n, j1f]
               * q[ch.s_prime - ch.n_prime, j2i]
               * q[ch.r_prime + ch.n_prime, j2f])
    return float(forward - reverse)


def reference_error(call):
    with pytest.raises(Exception) as excinfo:
        call()
    return type(excinfo.value), str(excinfo.value)


def test_channel_errors():
    pop1, pop2 = stationary_pair()
    good = reference_standard_channels(ENERGIES, SMAX, SMAX)[::97]
    for error, fields in BAD_CHANNELS:
        bad = channel(**fields)
        want = reference_error(lambda: reference_channel_indices(pop1, pop2, bad))
        assert want[0] is error
        assert reference_error(lambda: bal.balance_residual(pop1, pop2, bad)) == want
    # in a mixed set the first bad channel in row order raises
    for (_, first), (_, second) in itertools.permutations(BAD_CHANNELS, 2):
        mixed = good[:3] + [channel(**first)] + good[3:5] + [channel(**second)] + good[5:]
        want = reference_error(lambda: [reference_channel_indices(pop1, pop2, ch)
                                        for ch in mixed])
        record = columns_of(mixed)
        assert reference_error(lambda: bal.balance_residuals(pop1, pop2, record)) == want
        assert reference_error(lambda: bal._pack_channels(pop1, pop2, record)) == want


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
def test_non_finite_energy_is_off_grid(eps):
    pop1, pop2 = stationary_pair()
    with pytest.raises(OffGrid):
        pop1.bin_index(eps)
    for fields in (dict(eps1_i=eps), dict(eps1_i=eps, eps1_f=eps), dict(eps2_f=eps)):
        with pytest.raises(OffGrid):
            bal.balance_residual(pop1, pop2, channel(**fields))


def test_pack_channels_matches_reference_loop():
    for bins, s_max in ((BINS, SMAX), (32, 64)):
        energies = np.arange(1.0, bins + 1.0)
        pop1, pop2 = (bal.stationary_population(g_const, 1.0, 0.0, energies, 1.0,
                                                s_max=s_max, kind=kind) for kind in (1, 2))
        channels = reference_standard_channels(energies, s_max, s_max)
        rows = reference_rows(pop1, pop2, channels)
        want = reference_slots(pop1, pop2, rows)
        # standard_channels and the reference list's columns pack alike
        for form in (bal.standard_channels(energies, s_max, s_max), columns_of(channels)):
            slots, within = bal._pack_channels(pop1, pop2, form)
            assert slots.dtype == np.intp and slots.shape == (8, len(channels))
            assert slots.tobytes() == want.tobytes()
            assert within.tolist() == [reference_within_bin(row) for row in rows]


def test_total_quanta_edge_cases():
    table = np.zeros((4, BINS))
    table[0] = 5.0
    pop = bal.CondensatePopulation(1, ENERGIES, 1.0, table)
    assert bal.total_quanta(pop).total == 0.0

    table = np.zeros((4, BINS))
    table[1] = 2.0  # all packets elementary: quanta = packets with s=1
    pop = bal.CondensatePopulation(1, ENERGIES, 1.0, table)
    count = bal.total_quanta(pop)
    assert count.total == pytest.approx(2.0 * BINS)
    assert np.allclose(count.per_bin, 2.0)


def test_packet_entropy_examples():
    # all packets in a single order per bin: no rearrangement freedom
    table = np.zeros((3, BINS))
    table[1] = 4.0
    pop = bal.CondensatePopulation(1, ENERGIES, 1.0, table)
    assert bal.packet_entropy(pop) == pytest.approx(0.0, abs=1e-12)

    # equal split of 4 packets over two classes in one bin: ln(4!/(2!2!))
    table = np.zeros((2, 1))
    table[0, 0] = 2.0
    table[1, 0] = 2.0
    pop = bal.CondensatePopulation(1, np.array([1.0]), 1.0, table)
    assert bal.packet_entropy(pop) == pytest.approx(math.log(6.0), rel=1e-12)
    assert bal.packet_entropy(pop, k=2.0) == pytest.approx(2 * math.log(6.0), rel=1e-12)


def test_packet_entropy_drift_guard():
    pop1, _ = stationary_pair()
    table = pop1.table.copy()
    table[0, 0] += 1.0  # break the per-bin total
    broken = bal.CondensatePopulation(1, ENERGIES, 1.0, table, g_p=pop1.g_p)
    with pytest.raises(InvariantViolation):
        bal.packet_entropy(broken)


def test_stirling_entropy_examples():
    # all packets in a single order per bin: g ln g - g ln g = 0
    table = np.zeros((3, BINS))
    table[1] = 4.0
    pop = bal.CondensatePopulation(1, ENERGIES, 1.0, table)
    assert bal.stirling_entropy(pop) == pytest.approx(0.0, abs=1e-12)

    # equal split of 4 packets over two classes: 4 ln 4 - 2 * 2 ln 2 = 4 ln 2
    table = np.array([[2.0], [2.0], [0.0]])
    pop = bal.CondensatePopulation(1, np.array([1.0]), 1.0, table)
    assert bal.stirling_entropy(pop) == pytest.approx(4 * math.log(2.0), rel=1e-12)
    assert bal.stirling_entropy(pop, k=2.0) == pytest.approx(8 * math.log(2.0), rel=1e-12)

    table = pop.table.copy()
    table[0, 0] += 1.0
    broken = bal.CondensatePopulation(1, np.array([1.0]), 1.0, table, g_p=pop.g_p)
    with pytest.raises(InvariantViolation):
        bal.stirling_entropy(broken)


def test_geometric_ladder_maximizes_stirling_entropy():
    # moves of (+1, -2, +1) packets at orders (s-1, s, s+1) keep a bin's
    # packet and quantum totals; every one lowers the Stirling entropy of
    # the geometric ladder
    pop, _ = stationary_pair()
    s_geo = bal.stirling_entropy(pop)
    for s in (1, 5, 20):
        for sign in (1.0, -1.0):
            table = pop.table.copy()
            table[s - 1:s + 2, 0] += sign * 0.1 * table[s + 1, 0] * np.array([1.0, -2.0, 1.0])
            moved = bal.CondensatePopulation(1, ENERGIES, 1.0, table, g_p=pop.g_p)
            assert bal.stirling_entropy(moved) < s_geo


def test_stationary_entropy_beats_integer_rearrangements():
    # single bin, g packets, quanta fixed: the geometric ladder's
    # log-gamma entropy is not undercut by any integer table with the
    # same invariants by more than the continuous-vs-integer gap; check
    # it tops every exact multinomial arrangement
    g, s_max, quanta = 5, 4, 6
    energies = np.array([1.0])

    def ladder_for(mean):
        lo, hi = -40.0, 40.0
        s = np.arange(s_max + 1)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            w = np.exp(s * mid - s.max() * max(mid, 0.0))
            f = float((s * w).sum() / w.sum())
            if f < mean:
                lo = mid
            else:
                hi = mid
        w = np.exp(s * lo - s.max() * max(lo, 0.0))
        return w * (g / w.sum())

    table = ladder_for(quanta / g)[:, None]
    pop = bal.CondensatePopulation(1, energies, 1.0, table)
    s_geo = bal.packet_entropy(pop)

    best_integer = -np.inf
    for parts in itertools.product(range(g + 1), repeat=s_max + 1):
        if sum(parts) != g:
            continue
        if sum(s * n for s, n in enumerate(parts)) != quanta:
            continue
        s_int = math.log(math.factorial(g)) - sum(
            math.log(math.factorial(n)) for n in parts)
        best_integer = max(best_integer, s_int)
    assert s_geo >= best_integer - 1e-9


def test_relax_fixed_point_stays_fixed():
    pop1, pop2 = stationary_pair()
    channels = bal.standard_channels(ENERGIES, SMAX, SMAX)
    res = bal.relax(pop1, pop2, channels, steps=5, seed=0, tol=1e-12)
    assert res.sweeps == 1
    assert res.max_residuals[-1] < 1e-12
    assert np.allclose(res.pop1.table, pop1.table, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("bins,s_max,b,c", [(BINS, SMAX, 0.4, 0.1), (32, 64, 1.0, 0.0)])
def test_equilibrate_ladders_keeps_exact_ladder_and_totals(bins, s_max, b, c):
    # a cold-started, short ladder solve must land each column on its own
    # root and leave columns that already sit on their ladder untouched,
    # also where the true mean order is far below 1e-13 (the wide grid)
    energies = np.arange(1.0, bins + 1.0)
    pop = bal.stationary_population(g_const, b, c, energies, 1.0, s_max=s_max)
    table = pop.table.copy()
    lx = np.full(bins, -0.5)
    bal._equilibrate_ladders(table, lx, iters=40)
    assert np.array_equal(table, pop.table)
    root = -(b * energies - c)
    assert np.all(np.abs(lx - root) <= 8 * np.spacing(np.abs(root)))

    # a perturbed column is replaced by the ladder with its own totals;
    # the other columns stay bit-identical
    table = pop.table.copy()
    table[1:4, 2] *= [1.3, 0.7, 1.1]
    s = np.arange(s_max + 1)
    packets, quanta = table[:, 2].sum(), s @ table[:, 2]
    lx = np.full(bins, -0.5)
    bal._equilibrate_ladders(table, lx, iters=40)
    assert table[:, 2].sum() == pytest.approx(packets, rel=1e-12)
    assert s @ table[:, 2] == pytest.approx(quanta, rel=1e-12)
    assert np.allclose(np.diff(np.log(table[1:, 2])), lx[2], rtol=1e-9)
    others = np.arange(bins) != 2
    assert np.array_equal(table[:, others], pop.table[:, others])


def test_equilibrate_ladders_leaves_columns_without_a_finite_root():
    # no packets, every packet at order 0, every packet at s_max: the
    # ladder's log ratio would be -inf or +inf, and each column already is
    # its limit ladder
    table = np.zeros((SMAX + 1, 3))
    table[0, 1] = G0
    table[SMAX, 2] = G0
    start = table.copy()
    lx = np.full(3, -0.5)
    bal._equilibrate_ladders(table, lx, iters=3)
    assert np.array_equal(table, start)
    assert np.array_equal(lx, np.full(3, -0.5))


@pytest.mark.parametrize("b", [1.0, 3.0, 3.5, 4.0, 6.0])
def test_relax_keeps_exact_pair_on_steep_grid(b):
    # on the 32-bin, s_max-64 grid the high bins' mean orders reach e^-32
    # (b 1) to e^-192 (b 6); every representable slot must stay put, which
    # needs each ladder solve to start near its own root
    energies = np.arange(1.0, 33.0)
    pops = [bal.stationary_population(g_const, b, 0.0, energies, 1.0, s_max=64,
                                      kind=kind) for kind in (1, 2)]
    channels = bal.standard_channels(energies, 64, 64)
    res = bal.relax(*pops, channels, steps=5, seed=0)
    assert res.sweeps == 1
    for new, old in zip((res.pop1, res.pop2), pops):
        big = old.table >= 1e-300
        miss = np.abs(new.table[big] - old.table[big]) / old.table[big]
        assert np.max(miss) <= 1e-12


def test_stationary_population_steep_ladder_is_finite():
    # c > b*eps piles each ladder up at s_max; exp(-(b*eps - c) s) alone
    # overflows at s = 40
    b, c = 0.01, 20.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pop = bal.stationary_population(g_const, b, c, ENERGIES, 1.0, s_max=40)
    p = pop.table
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=0) * pop.d_eps, G0, rtol=1e-12, atol=0)
    both = (p[1:] >= 1e-300) & (p[:-1] >= 1e-300)
    expected = np.broadcast_to(c - b * ENERGIES, both.shape)[both]
    assert np.all(np.abs(np.log(p[1:][both] / p[:-1][both]) - expected) <= 1e-9)


def test_relax_converges_to_geometric_form():
    channels = bal.standard_channels(ENERGIES, SMAX, SMAX)
    base1, base2 = stationary_pair(b=0.4, c=0.1)
    rng = np.random.default_rng(11)
    pop1, pop2 = bal.scramble(base1, base2, channels, rng)
    res = bal.relax(pop1, pop2, channels, steps=2000, seed=11, tol=1e-10)
    assert res.max_residuals[-1] < 1e-10

    # conserving scrambles return to the original stationary parameters
    p = res.pop1.table
    slopes = [np.polyfit(np.arange(SMAX + 1),
                         np.log(np.maximum(p[:, j], 1e-300)), 1)[0]
              for j in range(BINS)]
    slope_fit = np.polyfit(ENERGIES, slopes, 1)
    assert -slope_fit[0] == pytest.approx(0.4, rel=0.02)
    assert slope_fit[1] == pytest.approx(0.1, abs=0.02)

    # per-bin log-linearity within 2 percent
    for j in range(BINS):
        predicted = slope_fit[0] * ENERGIES[j] + slope_fit[1]
        assert slopes[j] == pytest.approx(predicted, rel=0.02)


def test_relax_conserves_packets_and_quanta():
    channels = bal.standard_channels(ENERGIES, SMAX, SMAX)
    base1, base2 = stationary_pair()
    rng = np.random.default_rng(3)
    pop1, pop2 = bal.scramble(base1, base2, channels, rng)
    q0 = bal.total_quanta(pop1).total + bal.total_quanta(pop2).total
    res = bal.relax(pop1, pop2, channels, steps=2000, seed=3, tol=1e-10)
    quanta = np.array(res.quanta)
    assert np.max(np.abs(quanta - q0)) < 1e-9
    for pop, start in ((res.pop1, pop1), (res.pop2, pop2)):
        totals = pop.table.sum(axis=0) * pop.d_eps
        assert np.max(np.abs(totals - start.g_p)) < 1e-9


def test_relax_total_quanta_matches_occupancy():
    # converged stationary population reproduces the Bose spectrum
    b, c = 0.6, 0.1
    pop = bal.stationary_population(g_const, b, c, ENERGIES, 1.0, s_max=None)
    quanta = bal.total_quanta(pop).per_bin
    spec = dist.GasSpec(volume=1.0, temperature=1.0 / b, mass=1.0, statistics="bose")
    mu = c / b
    expected = dist.occupancy(ENERGIES, mu, spec, g_p=G0 * np.ones(BINS))
    assert np.allclose(quanta, expected, rtol=1e-9, atol=1e-9)


def test_relax_nonconvergence_carries_partial_result():
    channels = bal.standard_channels(ENERGIES, SMAX, SMAX)
    base1, base2 = stationary_pair()
    rng = np.random.default_rng(5)
    pop1, pop2 = bal.scramble(base1, base2, channels, rng)
    with pytest.raises(NonConvergence) as excinfo:
        bal.relax(pop1, pop2, channels, steps=2, seed=5, tol=1e-10)
    result = excinfo.value.result
    assert result.sweeps == 2
    assert len(result.max_residuals) == 2


def test_scramble_conserves_everything():
    channels = bal.standard_channels(ENERGIES, SMAX, SMAX)
    base1, base2 = stationary_pair()
    rng = np.random.default_rng(9)
    pop1, pop2 = bal.scramble(base1, base2, channels, rng)
    assert np.allclose(pop1.table.sum(axis=0), base1.table.sum(axis=0), atol=1e-12)
    assert bal.total_quanta(pop1).total == pytest.approx(
        bal.total_quanta(base1).total, abs=1e-9)
    e_before = (bal.total_quanta(base1).per_bin * ENERGIES).sum() + \
               (bal.total_quanta(base2).per_bin * ENERGIES).sum()
    e_after = (bal.total_quanta(pop1).per_bin * ENERGIES).sum() + \
              (bal.total_quanta(pop2).per_bin * ENERGIES).sum()
    assert e_after == pytest.approx(e_before, abs=1e-9)
    assert not np.allclose(pop1.table, base1.table)  # actually disturbed


def test_population_validation():
    with pytest.raises(ValueError):
        bal.CondensatePopulation(3, ENERGIES, 1.0, np.zeros((2, BINS)))
    with pytest.raises(ValueError):
        bal.CondensatePopulation(1, ENERGIES, -1.0, np.zeros((2, BINS)))
    with pytest.raises(ValueError):
        bal.CondensatePopulation(1, ENERGIES, 1.0, -np.ones((2, BINS)))
    with pytest.raises(OffGrid):
        pop, _ = stationary_pair()
        pop.bin_index(99.0)


@pytest.mark.parametrize("s_max", [4, None])
def test_stationary_population_refuses_empty_grid(s_max):
    with pytest.raises(ValueError, match="energy grid is empty"):
        bal.stationary_population(g_const, 1.0, 0.0, np.array([]), 1.0, s_max=s_max)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["energies", "d_eps", "table"])
def test_population_refuses_non_finite_fields(field, bad):
    fields = {"energies": ENERGIES.copy(), "d_eps": 1.0,
              "table": np.ones((2, BINS))}
    if field == "d_eps":
        fields[field] = bad
    else:
        fields[field][-1] = bad
    with pytest.raises(ValueError):
        bal.CondensatePopulation(1, **fields)


@pytest.mark.parametrize("b,c1,c2", [(0.4, 0.1, 0.1), (0.05, 1.0, -1.0), (3.0, 0.0, 0.0)])
def test_equilibrium_recovers_stationary_parameters(b, c1, c2):
    # true parameters on both sides of the fixed (1, 0, 0) start
    pop1 = bal.stationary_population(g_const, b, c1, ENERGIES, 1.0, s_max=SMAX, kind=1)
    pop2 = bal.stationary_population(g_const, b, c2, ENERGIES, 1.0, s_max=SMAX, kind=2)
    eq = bal.equilibrium(pop1, pop2)
    assert (eq.b, eq.c1, eq.c2) == pytest.approx((b, c1, c2), abs=1e-13)
    # per bin: at b = 3 the top slots are subnormal and hold few digits
    assert _max_bin_miss(eq.pop1, pop1) <= 1e-12
    assert _max_bin_miss(eq.pop2, pop2) <= 1e-12


def test_equilibrium_separates_the_species():
    # distinct offsets c1, c2 and a fermi second species
    pop1 = bal.stationary_population(g_const, 0.7, 0.3, ENERGIES, 1.0, s_max=SMAX)
    pop2 = bal.stationary_population(lambda e: 2.0 + e, 0.7, -0.4, ENERGIES, 1.0,
                                     s_max=1, kind=2)
    eq = bal.equilibrium(pop1, pop2)
    assert (eq.b, eq.c1, eq.c2) == pytest.approx((0.7, 0.3, -0.4), abs=1e-12)
    assert eq.pop2.s_max == 1


def test_equilibrium_needs_two_bins():
    pop = bal.stationary_population(g_const, 0.4, 0.1, np.array([1.0]), 1.0, s_max=4)
    with pytest.raises(ValueError):
        bal.equilibrium(pop, pop)


def _cli_toy(bins, s_max, seed):
    # the populations `idstat --seed <seed> balance --bins <bins> --smax <s_max>`
    # hands to relax
    energies = np.arange(1.0, bins + 1.0)
    pops = [bal.stationary_population(lambda e: 6.0, 1.0, 0.0, energies, 1.0,
                                      s_max=s_max, kind=kind) for kind in (1, 2)]
    channels = bal.standard_channels(energies, s_max, s_max)
    return (*bal.scramble(*pops, channels, np.random.default_rng(seed)), channels)


def _max_bin_miss(got, want):
    """Largest |got - want| in each bin relative to that bin's largest slot."""
    return float(np.max(np.abs(got.table - want.table).max(axis=0)
                        / want.table.max(axis=0)))


def _stirling_scale(pop):
    counts = pop.table * pop.d_eps
    g_log_g = pop.g_p * np.log(pop.g_p)
    c_log_c = counts * np.log(np.where(counts > 0, counts, 1.0))
    return float(np.abs(g_log_g).sum() + np.abs(c_log_c).sum())


@functools.cache
def _relaxed_cli_toy(bins, s_max, steps, seed):
    pop1, pop2, channels = _cli_toy(bins, s_max, seed)
    return pop1, pop2, bal.relax(pop1, pop2, channels, steps=steps, seed=seed)


@pytest.mark.parametrize("bins,s_max,steps,seed", [
    (8, 16, 2000, 0), (8, 16, 2000, 7), (32, 64, 300, 3)])
def test_relax_lands_on_equilibrium(bins, s_max, steps, seed):
    pop1, pop2, res = _relaxed_cli_toy(bins, s_max, steps, seed)
    eq = bal.equilibrium(pop1, pop2)
    assert (eq.b, eq.c1, eq.c2) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    assert _max_bin_miss(res.pop1, eq.pop1) <= 1e-10
    assert _max_bin_miss(res.pop2, eq.pop2) <= 1e-10


def test_relax_lands_on_equilibrium_of_scrambled_pair():
    channels = bal.standard_channels(ENERGIES, SMAX, SMAX)
    pop1, pop2 = bal.scramble(*stationary_pair(b=0.4, c=0.1), channels,
                              np.random.default_rng(11))
    res = bal.relax(pop1, pop2, channels, steps=2000, seed=11)
    eq = bal.equilibrium(pop1, pop2)
    assert (eq.b, eq.c1, eq.c2) == pytest.approx((0.4, 0.1, 0.1), abs=1e-12)
    assert _max_bin_miss(res.pop1, eq.pop1) <= 1e-10
    assert _max_bin_miss(res.pop2, eq.pop2) <= 1e-10


@pytest.mark.parametrize("seed", [3, 4])
def test_wide_grid_entropy_never_falls_past_roundoff(seed):
    # the bound the balance module docstring states: no sweep lowers the
    # Stirling entropy by more than 16 eps A, A = sum |g ln g| + |c ln c|
    _, _, res = _relaxed_cli_toy(32, 64, 300, seed)
    scale = _stirling_scale(res.pop1) + _stirling_scale(res.pop2)
    assert np.all(np.diff(res.entropies) >= -16 * np.finfo(float).eps * scale)


def reference_standard_channels(energies, s_max1, s_max2):
    energies = np.asarray(energies, dtype=float)
    e0 = float(energies[0])
    m = energies.size
    channels = []
    for e in energies:
        for s in range(1, s_max1):
            channels.append(bal.CollisionChannel(
                eps1_i=float(e), eps1_f=float(e), eps2_i=e0, eps2_f=e0,
                n=1, n_prime=0, s=s, r=s, s_prime=0, r_prime=0,
            ))
        for s in range(1, s_max2):
            channels.append(bal.CollisionChannel(
                eps1_i=e0, eps1_f=e0, eps2_i=float(e), eps2_f=float(e),
                n=0, n_prime=1, s=0, r=0, s_prime=s, r_prime=s,
            ))

    def cross(i1, f1, i2, f2):
        return bal.CollisionChannel(
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


def reference_scramble(pop1, pop2, channels, rng):
    """Three rounds of one scalar draw and one numpy-scalar move per channel."""
    rows = reference_rows(pop1, pop2, channels)
    p = pop1.table.copy()
    q = pop2.table.copy()
    for _ in range(3):
        for j1i, j1f, j2i, j2f, s, r, sp, rp, n, npr in rows:
            f = rng.uniform(-0.5, 0.5)
            if f >= 0:
                room = min(p[s, j1i], p[r, j1f], q[sp, j2i], q[rp, j2f])
            else:
                room = min(p[s - n, j1i], p[r + n, j1f],
                           q[sp - npr, j2i], q[rp + npr, j2f])
            move = f * room
            p[s, j1i] -= move
            p[s - n, j1i] += move
            p[r, j1f] -= move
            p[r + n, j1f] += move
            q[sp, j2i] -= move
            q[sp - npr, j2i] += move
            q[rp, j2f] -= move
            q[rp + npr, j2f] += move
    return np.maximum(p, 0.0), np.maximum(q, 0.0)


def reference_conflict_free_batches(rows):
    """First-fit grouping by a scan over every batch's set of slots."""
    batches, batch_slots = [], []
    for i, (j1i, j1f, j2i, j2f, s, r, sp, rp, n, npr) in enumerate(rows):
        slots = set()
        if n > 0:
            slots.update([(1, s, j1i), (1, s - n, j1i), (1, r, j1f), (1, r + n, j1f)])
        if npr > 0:
            slots.update([(2, sp, j2i), (2, sp - npr, j2i), (2, rp, j2f), (2, rp + npr, j2f)])
        for b, used in zip(batches, batch_slots):
            if not (slots & used):
                b.append(i)
                used |= slots
                break
        else:
            batches.append([i])
            batch_slots.append(set(slots))
    return batches


@pytest.mark.parametrize("bins", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("s_max", [1, 2, 16, 64])
def test_standard_channels_match_reference_loop(bins, s_max):
    # every column is its field of the reference list, bit for bit
    energies = np.arange(1.0, bins + 1.0)
    got = bal.standard_channels(energies, s_max, s_max)
    want = reference_standard_channels(energies, s_max, s_max)
    assert isinstance(got, bal.ChannelColumns)
    assert len(got) == len(want)
    for name in CHANNEL_FIELDS:
        col = getattr(got, name)
        ref = np.array([getattr(ch, name) for ch in want],
                       dtype=float if name.startswith("eps") else np.intp)
        assert col.dtype == ref.dtype and col.shape == (len(want),)
        assert col.tobytes() == ref.tobytes()


@pytest.mark.parametrize("bins,s_max,seed", [(8, 16, 0), (8, 16, 7), (32, 64, 3), (1, 4, 0)])
def test_scramble_and_batches_match_reference_loops(bins, s_max, seed):
    # one bin has no inter-bin channel: relax then runs no batch
    energies = np.arange(1.0, bins + 1.0)
    pops = [bal.stationary_population(lambda e: 6.0, 1.0, 0.0, energies, 1.0,
                                      s_max=s_max, kind=kind) for kind in (1, 2)]
    channels = bal.standard_channels(energies, s_max, s_max)
    got = bal.scramble(*pops, channels, np.random.default_rng(seed))
    want = reference_scramble(*pops, reference_standard_channels(energies, s_max, s_max),
                              np.random.default_rng(seed))
    for pop, table in zip(got, want):
        assert pop.table.tobytes() == table.tobytes()

    # every channel, and the inter-bin channels in relax's order
    order = np.random.default_rng(seed).permutation(len(channels))
    slots, within = bal._pack_channels(*got, channels)
    slots, within = slots[:, order], within[order]
    rows = reference_rows(*got, reference_standard_channels(energies, s_max, s_max))
    rows = [rows[k] for k in order]
    inter = [row for row in rows if not reference_within_bin(row)]
    assert slots.tobytes() == reference_slots(*got, rows).tobytes()
    assert slots[:, ~within].tobytes() == reference_slots(*got, inter).tobytes()
    # and random rows: losing orders up to s_max, gaining orders below 4,
    # transfers of 0, 1 or 2 quanta
    rng = np.random.default_rng(seed)
    n, npr = rng.integers(0, 3, size=(2, 300))
    s, sp = (k + rng.integers(0, s_max - 1, size=300) for k in (n, npr))
    r, rp = rng.integers(0, 2, size=(2, 300))
    mixed = list(zip(*rng.integers(0, bins, size=(4, 300)).tolist(),
                     *(col.tolist() for col in (s, r, sp, rp, n, npr))))
    for sub in (rows, inter, mixed):
        batches = bal._conflict_free_batches(reference_slots(*got, sub))
        assert all(b.dtype == np.intp for b in batches)
        assert [b.tolist() for b in batches] == reference_conflict_free_batches(sub)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_apply_moves_matches_reference_loop(seed):
    # a small joint table, so that many channels share slots, and transfers
    # of 0 quanta, whose forward and reverse slots coincide
    rng = np.random.default_rng(seed)
    pops = [bal.CondensatePopulation(kind, np.arange(1.0, 4.0), 1.0,
                                     rng.random((s_max + 1, 3)))
            for kind, s_max in ((1, 4), (2, 3))]
    n, npr = rng.integers(0, 3, size=(2, 200))
    s, r = n + rng.integers(0, 5 - n), rng.integers(0, 5 - n)          # s_max 4
    sp, rp = npr + rng.integers(0, 4 - npr), rng.integers(0, 4 - npr)  # s_max 3
    rows = list(zip(*rng.integers(0, 3, size=(4, 200)).tolist(),
                    *(col.tolist() for col in (s, r, sp, rp, n, npr))))
    slots = reference_slots(*pops, rows)
    delta = rng.normal(size=200) * 10.0 ** rng.uniform(-6, 0, size=200)
    pq = bal._joint_table(*pops)
    want = pq.copy()
    for row in range(8):   # slot row by slot row: take on even rows, give on odd
        for k in range(200):
            if row % 2 == 0:
                want[slots[row, k]] -= delta[k]
            else:
                want[slots[row, k]] += delta[k]
    bal._apply_moves(pq, slots, delta)
    assert pq.tobytes() == want.tobytes()


def columns_of(channels):
    """The ChannelColumns holding a list of CollisionChannel, field by field."""
    return bal.ChannelColumns(*(np.array([getattr(ch, name) for ch in channels])
                                for name in CHANNEL_FIELDS))


@pytest.mark.parametrize("bins,s_max,steps,seed", [
    (8, 16, 2000, 0), (8, 16, 2000, 7), (32, 64, 300, 3), (1, 4, 2000, 0)])
def test_channel_consumers_take_columns_or_list(bins, s_max, steps, seed):
    # standard_channels and the columns of the reference list give
    # byte-identical results
    energies = np.arange(1.0, bins + 1.0)
    pops = [bal.stationary_population(lambda e: 6.0, 1.0, 0.0, energies, 1.0,
                                      s_max=s_max, kind=kind) for kind in (1, 2)]
    forms = (bal.standard_channels(energies, s_max, s_max),
             columns_of(reference_standard_channels(energies, s_max, s_max)))
    got, want = (bal.balance_residuals(*pops, form) for form in forms)
    assert got.tobytes() == want.tobytes()
    scrambled = [bal.scramble(*pops, form, np.random.default_rng(seed)) for form in forms]
    for got, want in zip(*scrambled):
        assert got.table.tobytes() == want.table.tobytes()
    got, want = (bal.relax(*scrambled[0], form, steps=steps, seed=seed) for form in forms)
    assert got.sweeps == want.sweeps
    assert (got.max_residuals, got.entropies, got.quanta) == \
        (want.max_residuals, want.entropies, want.quanta)
    for new, ref in ((got.pop1, want.pop1), (got.pop2, want.pop2)):
        assert new.table.tobytes() == ref.table.tobytes()


def test_channel_columns_raise_as_the_list():
    pop1, pop2 = stationary_pair()
    good = reference_standard_channels(ENERGIES, SMAX, SMAX)[::97]
    for _, fields in BAD_CHANNELS:
        bad = channel(**fields)
        want = reference_error(lambda: bal.balance_residual(pop1, pop2, bad))
        # one bad row among good ones
        record = columns_of(good[:3] + [bad] + good[3:])
        for call in (bal.balance_residuals, bal._pack_channels,
                     lambda *pops: bal.scramble(*pops, np.random.default_rng(0)),
                     lambda *pops: bal.relax(*pops, steps=1)):
            assert reference_error(lambda: call(pop1, pop2, record)) == want
    with pytest.raises(ValueError, match="at least one channel"):
        bal.relax(pop1, pop2, columns_of([]), steps=1)

    # malformed columns are refused when built, negative counts and orders
    # as CollisionChannel refuses them
    for fields in (dict(n=-1), dict(n_prime=-2), dict(r=-1), dict(s_prime=-1)):
        want = reference_error(lambda: channel(**fields))
        row = {**vars(channel()), **fields}
        assert reference_error(lambda: bal.ChannelColumns(
            *(np.array([row[name]]) for name in CHANNEL_FIELDS))) == want
    cols = [getattr(columns_of(good), name) for name in CHANNEL_FIELDS]
    for broken in (cols[:9] + [cols[9][1:]], cols[:9] + [cols[9].reshape(1, -1)]):
        with pytest.raises(ValueError, match="1-d arrays of one length"):
            bal.ChannelColumns(*broken)


def test_standard_channels_build_no_collision_channel(monkeypatch):
    def refuse(self):
        raise RuntimeError("a CollisionChannel was built")

    monkeypatch.setattr(bal.CollisionChannel, "__post_init__", refuse)
    with pytest.raises(RuntimeError):
        channel()
    assert len(bal.standard_channels(np.arange(1.0, 33.0), 64, 64)) == 4259


@pytest.mark.parametrize("energies", [np.array([]), []])
def test_standard_channels_refuse_an_empty_grid(energies):
    with pytest.raises(ValueError, match="energy grid is empty"):
        bal.standard_channels(energies, SMAX, SMAX)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_standard_channels_refuse_non_finite_energies(bad):
    energies = ENERGIES.copy()
    energies[3] = bad
    with pytest.raises(ValueError, match="finite 1-d grid"):
        bal.standard_channels(energies, SMAX, SMAX)


@pytest.mark.parametrize("s_max1,s_max2", [(0, SMAX), (SMAX, 0), (-3, SMAX), (SMAX, -3)])
def test_standard_channels_refuse_orders_below_one(s_max1, s_max2):
    with pytest.raises(ValueError, match="s_max must be at least 1"):
        bal.standard_channels(ENERGIES, s_max1, s_max2)
