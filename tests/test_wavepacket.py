import dataclasses
import math

import numpy as np
import pytest

from idstat import symmetry as sym
from idstat import wavepacket as wp
from idstat.errors import GridTooNarrow

from conftest import simpson_norm, simpson_overlap

WIDE = wp.Grid(-40.0, 40.0, 2049)


def test_spreading_factor_zero_at_t0():
    p = wp.WavePacket(m0=3.0, sigma=0.7, t0=1.5)
    assert wp.spreading_factor(p, 1.5) == 0.0


def test_spreading_factor_values():
    assert wp.spreading_factor(wp.WavePacket(m0=1.0, sigma=math.sqrt(2)), 1.0) == pytest.approx(1.0)
    assert wp.spreading_factor(wp.WavePacket(m0=2.0, sigma=1.0), 3.0) == pytest.approx(3.0)


def test_spreading_factor_antisymmetric():
    p = wp.WavePacket(m0=1.3, sigma=0.9, t0=0.4)
    for dt in (0.1, 1.0, 7.3):
        assert wp.spreading_factor(p, p.t0 + dt) == pytest.approx(
            -wp.spreading_factor(p, p.t0 - dt))


def test_evaluate_at_center_minimum_width():
    p = wp.WavePacket(m0=1.0, sigma=1.0)
    value = wp.evaluate(p, 0.0, 0.0)
    # (2/pi)^(1/4), with no phase
    assert value.real == pytest.approx(0.8932438417380023, abs=1e-12)
    assert value.imag == pytest.approx(0.0, abs=1e-15)

    p2 = wp.WavePacket(m0=2.0, sigma=1.7, x0=3.0, t0=-1.0)
    v2 = wp.evaluate(p2, 3.0, -1.0)
    assert v2 == pytest.approx((2.0 / (math.pi * 1.7**2)) ** 0.25)


def test_evaluate_modulus_even_about_center():
    p = wp.WavePacket(m0=1.0, sigma=1.2, x0=0.5)
    for delta in (0.1, 0.9, 2.2):
        left = abs(wp.evaluate(p, p.x0 - delta, p.t0))
        right = abs(wp.evaluate(p, p.x0 + delta, p.t0))
        assert left == pytest.approx(right, rel=1e-14)


def test_center_trivial_and_moving():
    p = wp.WavePacket(m0=1.0, sigma=1.0, x0=2.0, k0=0.0)
    assert wp.center(p, 17.0) == 2.0
    assert wp.center(wp.WavePacket(m0=1.0, sigma=1.0, k0=2.0), 3.0) == pytest.approx(6.0)


def test_center_trajectory_linear():
    p = wp.WavePacket(m0=1.7, sigma=1.0, x0=-0.3, k0=1.1)
    ts = np.linspace(-2.0, 4.0, 7)
    slope, intercept = np.polyfit(ts, wp.center(p, ts), 1)
    assert slope == pytest.approx(p.hbar * p.k0 / p.m0, abs=1e-9)
    assert intercept == pytest.approx(p.x0 + slope * (-p.t0), abs=1e-9)


def test_density_normalized_at_all_times():
    p = wp.WavePacket(m0=1.0, sigma=1.5, k0=0.8)
    for t in (0.0, 0.7, 3.0):
        assert wp.norm(p, t, WIDE) == pytest.approx(1.0, abs=1e-6)


def test_density_tail_negligible():
    p = wp.WavePacket(m0=1.0, sigma=1.0)
    assert wp.density(p, 30.0, 0.0) < 1e-12


def test_norm_conservation_up_to_A_ten():
    p = wp.WavePacket(m0=1.0, sigma=1.0, k0=0.3)
    grid = wp.Grid(-120.0, 120.0, 4097)
    for t in np.linspace(0.0, 5.0, 6):  # A(t) = 2t, so A sweeps 0..10
        assert abs(wp.spreading_factor(p, t)) <= 10.0
        assert wp.norm(p, float(t), grid) == pytest.approx(1.0, abs=1e-6)


def test_width_growth_matches_spreading():
    p = wp.WavePacket(m0=1.0, sigma=1.1)
    for t in (0.0, 0.5, 2.0):
        a = wp.spreading_factor(p, t)
        expected = p.sigma * math.sqrt(1.0 + a * a) / math.sqrt(2.0)
        xs = np.linspace(-4 * expected, 4 * expected, 401)
        rho = wp.density(p, xs, t)
        # ln rho = const - xi^2 / w^2
        slope = np.polyfit(xs**2, np.log(rho), 1)[0]
        fitted = math.sqrt(-1.0 / slope)
        assert fitted == pytest.approx(expected, rel=1e-2)


def test_norm_matches_simpson_oracle():
    # the packets, grids and times the norm tests and selftest use
    cases = [
        (wp.WavePacket(m0=1.0, sigma=1.5, k0=0.8), WIDE, (0.0, 0.7, 3.0)),
        (wp.WavePacket(m0=1.0, sigma=1.0, k0=0.3), wp.Grid(-120.0, 120.0, 4097),
         np.linspace(0.0, 5.0, 6)),
        (wp.WavePacket(m0=1.0, sigma=1.0, k0=0.4), wp.Grid(-12.0, 12.0, 1025), (0.7,)),
    ]
    for p, g, times in cases:
        for t in times:
            assert abs(wp.norm(p, t, g) - simpson_norm(p, t, g)) <= 1e-14


def test_norm_reports_clipped_mass():
    # density std is sigma/2, so +-3 holds erf(3/sqrt(2)) of a sigma-2 packet
    p = wp.WavePacket(m0=1.0, sigma=2.0)
    clipped = wp.Grid(-3.0, 3.0, 64)
    assert wp.norm(p, 0.0, clipped) == pytest.approx(math.erf(3.0 / math.sqrt(2.0)),
                                                      abs=1e-4)
    assert wp.norm(p, 0.0, clipped) == pytest.approx(simpson_norm(p, 0.0, clipped),
                                                      abs=1e-4)


def test_overlap_self_is_one():
    p = wp.WavePacket(m0=1.0, sigma=1.0, k0=1.2)
    assert wp.overlap(p, p, 0.4) == pytest.approx(1.0, abs=1e-12)


def test_overlap_distant_packets_vanish():
    # 20 and 1000 sigma apart; the far pair underflows without a warning
    for x0, bound in ((9.0, 1e-10), (989.0, 1e-300)):
        p1 = wp.WavePacket(m0=1.0, sigma=1.0, x0=-11.0)
        p2 = wp.WavePacket(m0=1.0, sigma=1.0, x0=x0)
        assert abs(wp.overlap(p1, p2, 0.0)) <= bound


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_width_past_the_float_range_is_refused():
    # at t = 5, A = 1e301 and sigma**2*(1 + A**2) passes the float range,
    # where alpha underflowed to 0 and density gave 0 everywhere
    p = wp.WavePacket(m0=1.0, sigma=1.0, hbar=1e300)
    moved = dataclasses.replace(p, x0=1.0)
    for call in (lambda: wp.density(p, np.zeros(3), 5.0), lambda: wp.density(p, 0.0, 5.0),
                 lambda: wp.norm(p, 5.0, wp.Grid(-12.0, 12.0, 64)),
                 lambda: wp.overlap(p, moved, 5.0), lambda: wp.overlap(moved, p, 5.0)):
        with pytest.raises(ValueError, match="squared width"):
            call()
    # at t = t0 the same packets are fine
    assert wp.density(p, 0.0, 0.0) == wp.density(wp.WavePacket(m0=1.0, sigma=1.0), 0.0, 0.0)
    assert abs(wp.overlap(p, moved, 0.0)) ** 2 == pytest.approx(math.exp(-1.0), rel=1e-12)


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_huge_hbar_packet_is_finite_at_its_minimum_width_time():
    # 2*hbar passes the float range at hbar = 1e308, but hbar*(t - t0) is 0
    # at t0, so A = 0 there and the packet is the hbar = 1 packet at t0
    p = wp.WavePacket(m0=1.0, sigma=2.0, hbar=1e308)
    plain = wp.WavePacket(m0=1.0, sigma=2.0)
    xs = np.linspace(-6.0, 6.0, 9)
    assert wp.spreading_factor(p, 0.0) == 0.0
    psi = wp.evaluate(p, xs, 0.0)
    assert np.all(np.isfinite(psi))
    assert np.array_equal(psi, wp.evaluate(plain, xs, 0.0))
    assert np.array_equal(wp.density(p, xs, 0.0), wp.density(plain, xs, 0.0))
    assert wp.overlap(p, p, 0.0) == pytest.approx(1.0, rel=1e-12)
    # the doubling is exact: A is bit-identical where 2*hbar stays finite
    q = wp.WavePacket(m0=1.3, sigma=0.7, t0=0.2, hbar=3.1)
    for t in (-4.0, 0.2, 0.9, 1e3):
        assert wp.spreading_factor(q, t) == 2.0 * q.hbar * (t - q.t0) / (q.m0 * q.sigma**2)


def test_overlap_conjugate_symmetry():
    p1 = wp.WavePacket(m0=1.0, sigma=1.0, x0=-0.7, k0=0.9)
    p2 = wp.WavePacket(m0=1.0, sigma=1.4, x0=0.6, k0=-0.4, t0=0.2)
    rng = np.random.default_rng(13)
    pairs = [(p1, p2, 0.3)] + [
        tuple(wp.WavePacket(m0=rng.uniform(0.5, 2.0), sigma=rng.uniform(0.5, 2.0),
                            x0=rng.uniform(-3.0, 3.0), t0=rng.uniform(-1.0, 1.0),
                            k0=rng.uniform(-2.0, 2.0)) for _ in range(2))
        + (rng.uniform(-2.0, 2.0),) for _ in range(50)]
    for a, b, t in pairs:
        assert wp.overlap(a, b, t) == wp.overlap(b, a, t).conjugate()


def test_overlap_matches_closed_form():
    # the closed form against the Simpson oracle
    p1 = wp.WavePacket(m0=1.0, sigma=0.9, x0=-1.0, k0=0.7)
    p2 = wp.WavePacket(m0=1.0, sigma=1.3, x0=1.2, k0=-0.5, t0=0.3)
    grid = wp.Grid(-40.0, 40.0, 4097)
    for t in (0.0, 0.8):
        assert abs(wp.overlap(p1, p2, t) - simpson_overlap(p1, p2, t, grid)) <= 1e-12


def test_overlap_closed_form_self_consistency():
    # the closed form and the oracle both give unit self-overlap
    p = wp.WavePacket(m0=2.0, sigma=0.8, x0=0.3, k0=1.5, t0=-0.2)
    assert wp.overlap(p, p, 1.1) == pytest.approx(1.0, abs=1e-12)
    assert simpson_overlap(p, p, 1.1, WIDE) == pytest.approx(1.0, abs=1e-12)


def test_overlap_invariant_under_common_shift():
    # only the center distance enters; an expansion about x = 0 loses
    # 1e-10 relative here
    p1 = wp.WavePacket(m0=1.0, sigma=0.9, x0=-1.0, k0=0.7)
    p2 = wp.WavePacket(m0=1.0, sigma=1.3, x0=1.2, k0=-0.5, t0=0.3)
    for t in (0.0, 0.8):
        near = wp.overlap(p1, p2, t)
        far = wp.overlap(dataclasses.replace(p1, x0=p1.x0 + 1e3),
                         dataclasses.replace(p2, x0=p2.x0 + 1e3), t)
        assert abs(far - near) <= 1e-12 * abs(near)


def test_overlap_time_independent_for_equal_mass():
    # both packets evolve under the same free Hamiltonian
    p1 = wp.WavePacket(m0=1.0, sigma=0.9, x0=-1.0, k0=0.7)
    p2 = wp.WavePacket(m0=1.0, sigma=1.3, x0=1.2, k0=-0.5, t0=0.3)
    values = np.array([wp.overlap(p1, p2, t) for t in (0.0, 0.8, 5.0, 50.0)])
    assert np.ptp(values.real) <= 1e-14 and np.ptp(values.imag) <= 1e-14
    assert abs(values[0]) > 0.1


def test_two_packet_dip():
    # equal sigma and k0 at t0: |<a|b>|^2 = exp(-d^2/sigma^2), and the
    # (anti)symmetrized pair has norm (1 +- |<a|b>|^2)/2
    sigma = 1.3
    for ratio in (0.5, 1.0, 2.0):
        a = wp.WavePacket(m0=1.0, sigma=sigma, x0=-0.4, k0=0.6, t0=0.2)
        b = dataclasses.replace(a, x0=a.x0 + ratio * sigma)
        dip = abs(wp.overlap(a, b, a.t0)) ** 2
        assert dip == pytest.approx(math.exp(-ratio**2), rel=1e-14)
        reg = sym.ModeRegistry()
        prod = sym.product_state([reg.register(a), reg.register(b)])
        ov = lambda i, j: wp.overlap(reg[i], reg[j], a.t0)
        for project, sign in ((sym.symmetrize, 1.0), (sym.antisymmetrize, -1.0)):
            state = project(prod)
            norm2 = sym.scalar_product(state, state, ov)
            assert norm2 == pytest.approx((1.0 + sign * dip) / 2.0, rel=1e-14)


def test_grid_too_narrow_rejected():
    p = wp.WavePacket(m0=1.0, sigma=2.0)
    narrow = wp.Grid(-3.0, 3.0, 64)
    with pytest.raises(GridTooNarrow):
        wp.schrodinger_residual(p, narrow, 0.0)


def test_residual_second_order_convergence():
    p = wp.WavePacket(m0=1.0, sigma=2.0, k0=0.3)
    res = []
    for n in (513, 1025, 2049):
        res.append(wp.schrodinger_residual(p, wp.Grid(-16.0, 16.0, n), 0.0))
    for coarse, fine in zip(res, res[1:]):
        ratio = coarse / fine
        assert ratio == pytest.approx(4.0, rel=0.2)
        assert math.log2(ratio) >= 1.8  # measured convergence order


def test_residual_small_on_fine_grid():
    p = wp.WavePacket(m0=1.0, sigma=2.0, k0=0.3)
    n = int(32.0 / (p.sigma / 512)) + 1  # 512 points per sigma
    g = wp.Grid(-16.0, 16.0, n)
    assert wp.schrodinger_residual(p, g, 0.0) < 1e-6


def test_residual_detects_corrupted_packet():
    p = wp.WavePacket(m0=1.0, sigma=2.0, k0=0.3)
    g = wp.Grid(-16.0, 16.0, 2049)
    flipped = lambda xs, t: np.conj(wp.evaluate(p, xs, t))
    assert wp.free_equation_residual(flipped, g, 0.0, p.m0, p.hbar) > 1e-2


def test_packet_validation():
    with pytest.raises(ValueError):
        wp.WavePacket(m0=-1.0, sigma=1.0)
    with pytest.raises(ValueError):
        wp.WavePacket(m0=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        wp.WavePacket(m0=1.0, sigma=float("nan"))
    with pytest.raises(ValueError):
        wp.Grid(1.0, -1.0, 64)
    with pytest.raises(ValueError):
        wp.Grid(-1.0, 1.0, 8)


@pytest.mark.parametrize("x_min, x_max", [
    (-math.inf, 1.0), (-1.0, math.inf), (-math.inf, math.inf), (math.nan, 1.0),
    (-1.0, math.nan), (-1e308, 1e308)])
def test_grid_requires_finite_bounds(x_min, x_max):
    # the last pair is finite, but its width overflows to inf
    with pytest.raises(ValueError, match="finite"):
        wp.Grid(x_min, x_max, 64)


@pytest.mark.filterwarnings("error")
def test_evaluate_far_tail_is_positive_zero():
    # away from t0 the far phase a*xi^2/w2 passes the float range while the
    # Gaussian factor underflows to 0; the amplitude there is +0, not nan
    p = wp.WavePacket(m0=1.0, sigma=1.0, k0=0.4)
    x = np.array([0.5, 1e200, -1e300, 1e308])
    for t in (0.25, -3.0, 1e6):
        psi = wp.evaluate(p, x, t)
        assert psi[0] != 0
        assert np.all(psi[1:] == 0)
        assert not np.signbit(psi[1:].real).any() and not np.signbit(psi[1:].imag).any()
        assert wp.evaluate(p, x[1], t) == 0
    # a width past the float range still gives a non-finite amplitude
    assert not np.isfinite(wp.evaluate(p, x, 1e308)).all()
