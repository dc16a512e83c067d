import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from idstat import distributions as dist
from idstat.errors import (
    BosePole,
    Infeasible,
    NoBracket,
    NoConvergence,
    SaturationExceeded,
)

RNG = np.random.default_rng(7)


def fermi_spec(**kw):
    base = dict(volume=500.0, temperature=1.0, mass=1.0, statistics="fermi")
    base.update(kw)
    return dist.GasSpec(**base)


def bose_spec(**kw):
    base = dict(volume=500.0, temperature=1.0, mass=1.0, statistics="bose")
    base.update(kw)
    return dist.GasSpec(**base)


def test_dispersion():
    spec = fermi_spec()
    assert dist.dispersion(0.0, spec) == pytest.approx(spec.mass * spec.c**2)
    light = dist.GasSpec(volume=1.0, temperature=1.0, mass=1e-300,
                         statistics="bose")
    assert dist.dispersion(2.5, light) == pytest.approx(2.5 * light.c)
    triple = dist.GasSpec(volume=1.0, temperature=1.0, mass=4.0, statistics="fermi")
    assert dist.dispersion(3.0, triple) == pytest.approx(5.0)


def test_mode_count():
    spec = fermi_spec(volume=1.0)
    assert dist.mode_count(0.0, 0.1, spec) == 0.0
    single = dist.mode_count(1.0, 0.1, spec)
    assert single == pytest.approx(4 * math.pi * 0.1)
    doubled = dist.mode_count(1.0, 0.1, fermi_spec(volume=2.0))
    assert doubled == pytest.approx(2 * single)


def test_occupancy_fermi_examples():
    spec = fermi_spec()
    assert dist.occupancy(1.7, 1.7, spec) == pytest.approx(0.5)
    cold = fermi_spec(temperature=1e-6)
    assert dist.occupancy(1.0, 2.0, cold) == pytest.approx(1.0, abs=1e-9)
    assert dist.occupancy(3.0, 2.0, cold) == pytest.approx(0.0, abs=1e-9)


def test_occupancy_bose_examples():
    spec = bose_spec()
    assert dist.occupancy(spec.kT * math.log(2.0), 0.0, spec) == pytest.approx(1.0)
    with pytest.raises(BosePole):
        dist.occupancy(1.0, 1.0, spec)
    with pytest.raises(BosePole):
        dist.occupancy(0.5, 1.0, spec)


def test_occupancy_monotonicity_and_bounds():
    eps = np.linspace(1.0, 5.0, 40)
    f = dist.occupancy(eps, 2.0, fermi_spec())
    assert np.all(np.diff(f) < 0)
    assert np.all((f > 0) & (f < 1))
    b = dist.occupancy(eps, 0.5, bose_spec())
    assert np.all(np.diff(b) < 0)
    assert np.all(b > 0)
    # increasing in mu
    assert np.all(dist.occupancy(eps, 2.1, fermi_spec())
                  > dist.occupancy(eps, 2.0, fermi_spec()))


def test_occupancy_scaled_by_mode_count():
    spec = fermi_spec()
    assert dist.occupancy(2.0, 1.0, spec, g_p=7.0) == pytest.approx(
        7.0 * dist.occupancy(2.0, 1.0, spec))


def test_solve_mu_two_level_toy():
    # symmetric levels, half filling: mu = 0 by particle-hole symmetry
    mu = dist.solve_mu_on_levels(10.0, [-1.0, 1.0], [10.0, 10.0], 1.0, "fermi")
    assert mu == pytest.approx(0.0, abs=1e-10)


def test_solve_mu_classical_regime():
    spec = fermi_spec()
    grid = dist.MomentumGrid(0.0, 6.0, 64)
    eps = dist.grid_energies(spec, grid)
    g = dist.grid_mode_counts(spec, grid)
    n_target = 1e-4 * g.sum()  # occupancy << 1 everywhere
    mu = dist.solve_mu(n_target, spec, grid)
    boltzmann_mu = spec.kT * math.log(
        n_target / float(np.sum(g * np.exp(-eps / spec.kT))))
    assert mu == pytest.approx(boltzmann_mu, rel=1e-3)


def test_solve_mu_round_trip():
    for statistics in ("fermi", "bose"):
        spec = fermi_spec() if statistics == "fermi" else bose_spec()
        grid = dist.MomentumGrid(0.0, 4.0, 48)
        eps = dist.grid_energies(spec, grid)
        g = dist.grid_mode_counts(spec, grid)
        eps_min = float(eps.min())
        mu_star = eps_min - 0.7 if statistics == "bose" else eps_min + 1.3
        n_from_mu = float(np.sum(dist.occupancy(eps, mu_star, spec, g_p=g)))
        mu_back = dist.solve_mu(n_from_mu, spec, grid)
        assert mu_back == pytest.approx(mu_star, abs=1e-9)


def test_solve_mu_saturation():
    spec = bose_spec()
    grid = dist.MomentumGrid(0.0, 4.0, 32)
    cap = dist.saturation_count(spec, grid)
    with pytest.raises(SaturationExceeded):
        dist.solve_mu(cap * 1.01, spec, grid)


def test_solve_mu_fermi_overfull():
    spec = fermi_spec()
    grid = dist.MomentumGrid(0.0, 4.0, 32)
    g = dist.grid_mode_counts(spec, grid)
    with pytest.raises(NoBracket):
        dist.solve_mu(float(g.sum()) * 1.5, spec, grid)


def test_max_entropy_matches_closed_form():
    for statistics in ("fermi", "bose"):
        spec = fermi_spec() if statistics == "fermi" else bose_spec()
        grid = dist.MomentumGrid(0.0, 4.0, 64)
        eps = dist.grid_energies(spec, grid)
        g = dist.grid_mode_counts(spec, grid)
        mu = float(eps.min()) + (1.5 if statistics == "fermi" else -0.5)
        closed = dist.occupancy(eps, mu, spec, g_p=g)
        n_t, e_t = float(closed.sum()), float((closed * eps).sum())
        result = dist.max_entropy_occupancies(spec, grid, n_t, e_t)
        rel = np.max(np.abs(result.occupancies - closed) / closed)
        assert rel <= 1e-6
        assert result.temperature == pytest.approx(spec.temperature, rel=1e-9)
        assert result.mu == pytest.approx(mu, abs=1e-9)


def test_max_entropy_two_bin_symmetry():
    # equal mode counts, energy fixed at the midpoint: equal occupancies
    result = dist.max_entropy_on_levels(
        [1.0, 2.0], [30.0, 30.0], 30.0, 45.0, "fermi")
    n1, n2 = result.occupancies
    assert n1 == pytest.approx(n2, rel=1e-10)
    assert n1 + n2 == pytest.approx(30.0, rel=1e-12)


def test_max_entropy_single_bin():
    result = dist.max_entropy_on_levels([2.0], [40.0], 10.0, 20.0, "bose")
    assert result.occupancies[0] == pytest.approx(10.0, rel=1e-12)
    # multiplier consistency: s'(n) = a + b*eps at the returned multipliers
    prime = math.log1p(40.0 / 10.0)
    assert result.multiplier_number + result.multiplier_energy * 2.0 == pytest.approx(
        prime, rel=1e-9)
    with pytest.raises(Infeasible):
        dist.max_entropy_on_levels([2.0], [40.0], 10.0, 25.0, "bose")


def test_max_entropy_infeasible():
    with pytest.raises(Infeasible):
        dist.max_entropy_on_levels([1.0, 2.0], [5.0, 5.0], 20.0, 30.0, "fermi")
    with pytest.raises(Infeasible):
        # mean energy outside the level range
        dist.max_entropy_on_levels([1.0, 2.0], [5.0, 5.0], 2.0, 10.0, "bose")
    with pytest.raises(Infeasible):
        dist.max_entropy_on_levels([1.0, 2.0], [5.0, 5.0], -1.0, 1.0, "bose")


def test_max_entropy_iteration_cap():
    spec = fermi_spec()
    grid = dist.MomentumGrid(0.0, 4.0, 16)
    eps = dist.grid_energies(spec, grid)
    g = dist.grid_mode_counts(spec, grid)
    closed = dist.occupancy(eps, float(eps.min()) + 1.0, spec, g_p=g)
    with pytest.raises(NoConvergence):
        dist.max_entropy_occupancies(
            spec, grid, float(closed.sum()), float((closed * eps).sum()),
            max_iter=1)


def test_spec_validation():
    with pytest.raises(ValueError):
        dist.GasSpec(volume=1.0, temperature=1.0, mass=1.0, statistics="maxwell")
    with pytest.raises(ValueError):
        dist.GasSpec(volume=-1.0, temperature=1.0, mass=1.0, statistics="bose")
    with pytest.raises(ValueError):
        dist.MomentumGrid(2.0, 1.0, 32)
    with pytest.raises(ValueError):
        dist.MomentumGrid(0.0, 1.0, 4)


def _gas_levels(statistics, temperature, pmax, bins, volume=200.0):
    spec = dist.GasSpec(volume=volume, temperature=temperature, mass=1.0,
                        statistics=statistics)
    grid = dist.MomentumGrid(0.0, pmax, bins)
    return spec, grid, dist.grid_energies(spec, grid), dist.grid_mode_counts(spec, grid)


@pytest.mark.parametrize("temperature,pmax", [(0.5, 24.0), (0.25, 12.0)])
def test_max_entropy_fermi_far_tail(temperature, pmax):
    # a + b*eps reaches 45-90 on the top bins, where the occupation is
    # below g*1e-15; a per-bin bracket clamped at g*1e-15 cannot hold it
    spec, grid, eps, g = _gas_levels("fermi", temperature, pmax, 64)
    mu = float(eps.min()) + 0.5
    assert (float(eps.max()) - mu) / temperature > 40.0
    closed = dist.occupancy(eps, mu, spec, g_p=g)
    result = dist.max_entropy_occupancies(
        spec, grid, float(closed.sum()), float((closed * eps).sum()))
    assert np.max(np.abs(result.occupancies - closed)) <= 1e-12 * closed.max()


def _own_occupancies(eps, g, mu, temperature, statistics):
    sign = -1.0 if statistics == "bose" else 1.0
    return np.array([gi / (math.exp((e - mu) / temperature) + sign)
                     for e, gi in zip(eps, g)])


@pytest.mark.parametrize("statistics", ["bose", "fermi"])
def test_max_entropy_meets_stationarity_and_constraints(statistics):
    # independent of `occupancy`: the targets come from the test's own
    # formula, and the answer is checked against s'(n) and (N, E) alone
    _, _, eps, g = _gas_levels(statistics, 1.0, 4.0, 64, volume=500.0)
    mu = float(eps.min()) + (1.5 if statistics == "fermi" else -0.5)
    target = _own_occupancies(eps, g, mu, 1.0, statistics)
    n_t, e_t = math.fsum(target), math.fsum(target * eps)
    result = dist.max_entropy_on_levels(eps, g, n_t, e_t, statistics)
    a, b = result.multiplier_number, result.multiplier_energy
    for n, gi, e in zip(result.occupancies, g, eps):
        prime = math.log1p(gi / n) if statistics == "bose" else math.log((gi - n) / n)
        assert prime == pytest.approx(a + b * e, rel=1e-12, abs=1e-12)
    assert math.fsum(result.occupancies) == pytest.approx(n_t, rel=1e-12)
    assert math.fsum(result.occupancies * eps) == pytest.approx(e_t, rel=1e-12)


@pytest.mark.parametrize("field", ["volume", "temperature", "mass", "c", "h", "k"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_fields(field, value):
    base = dict(volume=1.0, temperature=1.0, mass=1.0, statistics="bose")
    with pytest.raises(ValueError, match=rf"^{field} must be finite and positive"):
        dist.GasSpec(**{**base, field: value})


@pytest.mark.parametrize("n_target,kT", [
    (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0),
    (5.0, math.nan), (5.0, math.inf), (5.0, 0.0)])
@pytest.mark.parametrize("statistics", ["bose", "fermi"])
def test_solve_mu_rejects_non_finite_input(n_target, kT, statistics):
    with pytest.raises(ValueError, match="finite and positive"):
        dist.solve_mu_on_levels(n_target, [1.0, 2.0], [10.0, 10.0], kT, statistics)


def test_solve_mu_bose_margin_below_float_spacing():
    # At kT = 1e-5, eps0 - 1e-12 kT rounds to eps0 = 1, so the upper end is
    # the float below 1.  The upper level holds nothing, and the lowest one
    # holds its 10 particles at x = ln 2.
    assert 1.0 - 1e-12 * 1e-5 == 1.0
    mu = dist.solve_mu_on_levels(10.0, [1.0, 2.0], [10.0, 10.0], 1e-5, "bose")
    assert mu == pytest.approx(1.0 - 1e-5 * math.log(2.0), rel=1e-15)


def test_bose_saturation_below_float_spacing():
    # At kT = 1e-300 the float below eps0 lies ~1e284 kT down: nothing is
    # reachable, and neither the solve nor the count divides by zero
    with pytest.raises(SaturationExceeded, match="saturation count 0"):
        dist.solve_mu_on_levels(1.0, [1.0, 2.0], [10.0, 10.0], 1e-300, "bose")
    spec = dist.GasSpec(volume=200.0, temperature=1e-300, mass=1.0, statistics="bose")
    assert dist.saturation_count(spec, dist.MomentumGrid(0.0, 10.0, 64)) == 0.0


def test_solve_mu_fermi_without_surviving_weight():
    # the only mode sits 1e4 kT above the empty lowest level, so z = 0;
    # half filling puts mu on that mode
    mu = dist.solve_mu_on_levels(0.5, [0.0, 1e4], [0.0, 1.0], 1.0, "fermi")
    assert mu == pytest.approx(1e4, rel=1e-12)


def test_solve_mu_fermi_far_below_the_lowest_level():
    # N = 1e-306 needs mu ~ -705 kT, past the e^-700 a clamped exponent
    # would floor every fermi occupation at
    eps, g = np.array([0.0, 1.0]), np.array([1.0, 1.0])
    mu = dist.solve_mu_on_levels(1e-306, eps, g, 1.0, "fermi")
    assert mu == pytest.approx(-705.0, abs=1.0)
    count = dist._total_number(mu, eps, g, 1.0, "fermi")
    assert count == pytest.approx(1e-306, rel=1e-10, abs=0)


def test_fermi_occupancy_far_tail_is_e_to_minus_x():
    spec = dist.GasSpec(volume=1.0, temperature=1.0, mass=1.0, statistics="fermi")
    assert dist.occupancy(705.0, 0.0, spec) == pytest.approx(math.exp(-705.0), rel=1e-15, abs=0)


def _own_count(eps, g, mu, kT, statistics):
    """sum g n(x) from exp(-x) for x > 0, so no term overflows."""
    terms = []
    for e, gi in zip(eps, g):
        x = (e - mu) / kT
        if x > 0:
            t = math.exp(-x)
            terms.append(gi * t / (-math.expm1(-x) if statistics == "bose" else 1.0 + t))
        else:
            terms.append(gi / (math.exp(x) + 1.0))
    return math.fsum(terms)


@given(statistics=st.sampled_from(["bose", "fermi"]),
       spread_exp=st.floats(-3.0, 3.0), kT_exp=st.floats(-2.0, 2.0),
       offset=st.floats(-1.0, 1.0), lift_exp=st.floats(-2.0, 4.2),
       fill=st.floats(0.0, 1.0),
       inner=st.lists(st.floats(0.0, 1.0), max_size=30),
       g_exp=st.lists(st.floats(-3.0, 3.0), min_size=32, max_size=32))
# a cold bose gas whose lowest level sits 1.26e4 kT above 0, where
# eps0 - 1e-12 kT rounds to eps0
@example(statistics="bose", spread_exp=-2.0, kT_exp=-2.0, offset=1.0, lift_exp=4.1,
         fill=0.99, inner=[0.5], g_exp=[0.0] * 32)
def test_solve_mu_round_trip_on_random_levels(statistics, spread_exp, kT_exp, offset,
                                              lift_exp, fill, inner, g_exp):
    spread = 10.0 ** spread_exp
    kT = spread * 10.0 ** kT_exp
    eps0 = offset * (kT * 10.0 ** lift_exp if statistics == "bose" else 10.0 * spread)
    eps = eps0 + spread * np.array([0.0, 1.0] + inner)
    g = 10.0 ** np.array(g_exp[: eps.size])
    total = math.fsum(g)
    # Near bose saturation, at x = (eps0 - mu)/kT, N changes by about
    # ulp(eps0)/(x kT) relative between adjacent floats of mu, so the top N
    # keeps x at least 1e11 ulp(eps0)/kT (and 1e-6) to be met to 1e-10.
    x_top = max(1e-6, 1e11 * math.ulp(eps0) / kT)
    n_max = (_own_count(eps, g, eps0 - x_top * kT, kT, "bose") if statistics == "bose"
             else 0.999 * total)
    n_target = math.exp(math.log(1e-200 * total)
                        + fill * (math.log(n_max) - math.log(1e-200 * total)))
    mu = dist.solve_mu_on_levels(n_target, eps, g, kT, statistics)
    assert _own_count(eps, g, mu, kT, statistics) == pytest.approx(n_target, rel=1e-10)


@pytest.mark.parametrize("statistics", ["bose", "fermi"])
def test_max_entropy_negative_temperature_is_infeasible(statistics):
    # the mean 1.8 lies above the mode-weighted mean 1.5: only b < 0 meets it
    with pytest.raises(Infeasible, match="negative temperature"):
        dist.max_entropy_on_levels([1.0, 2.0], [5.0, 5.0], 2.0, 3.6, statistics)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_max_entropy_rejects_bad_mode_counts(bad):
    with pytest.raises(ValueError, match="mode counts"):
        dist.max_entropy_on_levels([1.0, 2.0, 3.0], [5.0, bad, 5.0], 2.0, 4.0, "fermi")
    with pytest.raises(ValueError, match="mode counts"):
        dist.max_entropy_on_levels([2.0], [bad], 1.0, 2.0, "bose")


def test_solve_mu_count_budget(monkeypatch):
    # The spectra benchmark's 16 solve_mu strata without their jitter:
    # V 200, 256 bins, pmax 24, kT 1 (bose) and 0.25 (fermi), mu offsets
    # in kT below (bose) or above (fermi) the lowest level.  The bracket
    # searches the closed-form ends replaced took 291 counts here.
    calls = []
    total_number = dist._total_number
    monkeypatch.setattr(dist, "_total_number",
                        lambda *args: calls.append(None) or total_number(*args))
    for statistics, kT, offsets in (
            ("bose", 1.0, (3.0, 1.0, 0.3, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5)),
            ("fermi", 0.25, (-2.0, 0.5, 2.0, 4.0, 8.0, 16.0, 24.0, 40.0))):
        _, _, eps, g = _gas_levels(statistics, kT, 24.0, 256)
        for x in offsets:
            mu = float(eps.min()) + (x if statistics == "fermi" else -x) * kT
            n_target = math.fsum(_own_occupancies(eps, g, mu, kT, statistics))
            dist.solve_mu_on_levels(n_target, eps, g, kT, statistics)
    assert len(calls) < 291
