import cmath
import math

import numpy as np
import pytest

from idstat import spinstat as ss
from idstat import symmetry as sym
from idstat import wavepacket as wp
from idstat.errors import DegenerateAngles, SpinMismatch

from conftest import simpson_overlap

RNG = np.random.default_rng(42)
SPINS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)


def test_rotation_phase_quarter_turn():
    assert ss.rotation_phase(0.5, 0.0, math.pi / 2) == pytest.approx(
        cmath.exp(1j * math.pi / 4))


def test_rotation_phase_wraps_counterclockwise():
    # pi/2 -> 0 counterclockwise goes the long way round: 3*pi/2
    assert ss.rotation_phase(0.5, math.pi / 2, 0.0) == pytest.approx(
        cmath.exp(1j * 3 * math.pi / 4))


def test_rotation_phase_full_turn():
    assert ss.rotation_phase(1.0, 1.3, 1.3) == pytest.approx(1.0)
    # half-integer m picks up the spinor sign on a full turn
    assert ss.rotation_phase(0.5, 1.3, 1.3) == pytest.approx(-1.0)


def test_exchange_phase_examples():
    assert ss.exchange_phase(0.5, 0.0, math.pi / 2) == pytest.approx(-1.0, abs=1e-12)
    assert ss.exchange_phase(1.0, 0.3, 5.1) == pytest.approx(1.0, abs=1e-12)
    assert ss.exchange_phase(1.5, 1.0, 2.0) == pytest.approx(-1.0, abs=1e-12)


def test_exchange_phase_is_spin_statistics_sign():
    for s in SPINS:
        expected = (-1.0) ** int(round(2 * s))
        for _ in range(100):
            chi_a, chi_b = RNG.uniform(0.0, 2 * math.pi, size=2)
            if chi_a == chi_b:
                continue
            f = ss.exchange_phase(s, chi_a, chi_b)
            assert abs(f - expected) < 1e-12
            assert abs(abs(f) - 1.0) < 1e-12


def test_exchange_phase_degenerate_angles():
    with pytest.raises(DegenerateAngles):
        ss.exchange_phase(0.5, 1.0, 1.0)
    with pytest.raises(DegenerateAngles):
        ss.exchange_phase(0.5, 0.0, 2 * math.pi)  # same angle mod 2*pi


@pytest.mark.parametrize("phase", [ss.rotation_phase, ss.exchange_phase])
@pytest.mark.parametrize("args", [
    (math.nan, 0.3, 2.1), (math.inf, 0.3, 2.1), (0.7, -math.inf, 2.1),
    (0.5, 0.3, math.nan), (0.5, math.nan, math.nan)])
def test_phases_reject_non_finite_input(phase, args):
    # m is not snapped to half-integers here, so 0.7 is a valid component
    with pytest.raises(ValueError, match="must be finite"):
        phase(*args)


def test_spinor_mode_validation():
    with pytest.raises(ValueError):
        ss.SpinorMode(s=0.3, m=0.3, chi=0.0)
    with pytest.raises(ValueError):
        ss.SpinorMode(s=1.0, m=0.5, chi=0.0)  # m not in the integer ladder
    with pytest.raises(ValueError):
        ss.SpinorMode(s=0.5, m=1.5, chi=0.0)  # |m| > s
    mode = ss.SpinorMode(s=0.5, m=-0.5, chi=7.0)
    assert 0.0 <= mode.chi < 2 * math.pi


@pytest.mark.parametrize("field, value", [
    ("chi", math.inf), ("chi", -math.inf), ("chi", math.nan),
    ("s", math.inf), ("m", math.nan)])
def test_spinor_mode_rejects_non_finite_fields(field, value):
    fields = {"s": 0.5, "m": 0.5, "chi": 0.5, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ss.SpinorMode(**fields)


def test_equal_spinor_modes_share_an_id_and_overlap_one():
    # chi is kept modulo 2*pi, so chi and chi + 2*pi are one mode
    reg = sym.ModeRegistry()
    i = reg.register(ss.SpinorMode(s=0.5, m=0.5, chi=0.5))
    assert reg.register(ss.SpinorMode(s=0.5, m=0.5, chi=0.5)) == i
    assert reg.register(ss.SpinorMode(s=0.5, m=0.5, chi=0.5 + 2 * math.pi)) == i
    assert len(reg) == 1
    assert ss.SpinorOverlap(reg)(i, i) == 1.0


def test_exchanged_pair_spin_zero_is_symmetric():
    reg = sym.ModeRegistry()
    a = ss.SpinorMode(s=0.0, m=0.0, chi=0.2, u="left")
    b = ss.SpinorMode(s=0.0, m=0.0, chi=1.2, u="right")
    state = ss.exchanged_pair_state(a, b, reg)
    ida, idb = reg.register(a), reg.register(b)
    expected = sym.exchange_superposition(ida, idb, 1 / math.sqrt(2), 1 / math.sqrt(2))
    assert sym.states_close(state, expected, tol=1e-12)


def test_exchanged_pair_half_spin_is_antisymmetric():
    reg = sym.ModeRegistry()
    a = ss.SpinorMode(s=0.5, m=0.5, chi=0.2, u="left")
    b = ss.SpinorMode(s=0.5, m=0.5, chi=1.2, u="right")
    state = ss.exchanged_pair_state(a, b, reg)
    ida, idb = reg.register(a), reg.register(b)
    expected = sym.exchange_superposition(ida, idb, 1 / math.sqrt(2), -1 / math.sqrt(2))
    assert sym.states_close(state, expected, tol=1e-12)


def test_exchanged_pair_matches_projector_for_integer_spin():
    reg = sym.ModeRegistry()
    a = ss.SpinorMode(s=1.0, m=0.0, chi=0.4, u="u1")
    b = ss.SpinorMode(s=1.0, m=0.0, chi=2.4, u="u2")
    state = ss.exchanged_pair_state(a, b, reg)
    product = sym.product_state((reg.register(a), reg.register(b)))
    expected = sym.scale(sym.symmetrize(product), math.sqrt(2.0))
    assert sym.states_close(state, expected, tol=1e-12)


def test_exchanged_pair_requires_matching_spin():
    reg = sym.ModeRegistry()
    a = ss.SpinorMode(s=0.5, m=0.5, chi=0.0, u=None)
    b = ss.SpinorMode(s=0.5, m=-0.5, chi=1.0, u=None)
    with pytest.raises(SpinMismatch):
        ss.exchanged_pair_state(a, b, reg)
    c = ss.SpinorMode(s=0.5, m=0.5, chi=0.0, u="x")
    with pytest.raises(DegenerateAngles):
        ss.exchanged_pair_state(a, c, reg)


def test_pauli_cancellation_equal_payloads():
    reg = sym.ModeRegistry()
    a = ss.SpinorMode(s=0.5, m=0.5, chi=0.3, u="same")
    b = ss.SpinorMode(s=0.5, m=0.5, chi=1.7, u="same")
    state = ss.exchanged_pair_state(a, b, reg)
    ov = ss.SpinorOverlap(reg)
    assert abs(sym.scalar_product(state, state, ov)) < 1e-12


def test_pair_norms_orthonormal_payloads():
    for s, expected in ((0.0, 1.0), (0.5, 1.0), (1.0, 1.0)):
        reg = sym.ModeRegistry()
        a = ss.SpinorMode(s=s, m=s, chi=0.3, u="p")
        b = ss.SpinorMode(s=s, m=s, chi=1.7, u="q")
        state = ss.exchanged_pair_state(a, b, reg)
        ov = ss.SpinorOverlap(reg)
        assert sym.scalar_product(state, state, ov) == pytest.approx(expected, abs=1e-12)


def test_pair_norm_partial_overlap_gaussian_payloads():
    # |Psi|^2 = 1 + Re(F) |<a, b>|^2 for the 1/sqrt(2) pair construction
    packets = {
        "pa": wp.WavePacket(m0=1.0, sigma=1.0, x0=-0.4, k0=0.2),
        "pb": wp.WavePacket(m0=1.0, sigma=1.0, x0=0.7, k0=-0.1),
    }
    payload_ov = lambda ua, ub: (
        1.0 if ua == ub else wp.overlap(packets[ua], packets[ub], 0.0)
    )
    for s in (0.0, 0.5):
        reg = sym.ModeRegistry()
        a = ss.SpinorMode(s=s, m=s, chi=0.3, u="pa")
        b = ss.SpinorMode(s=s, m=s, chi=1.7, u="pb")
        state = ss.exchanged_pair_state(a, b, reg)
        ov = ss.SpinorOverlap(reg, payload_overlap=payload_ov)
        f_sign = (-1.0) ** int(round(2 * s))
        spatial = simpson_overlap(packets["pa"], packets["pb"], 0.0,
                                  wp.Grid(-40.0, 40.0, 4097))
        expected = 1.0 + f_sign * abs(spatial) ** 2
        assert sym.scalar_product(state, state, ov) == pytest.approx(expected, abs=1e-12)


def test_spinor_overlap_is_valid_provider():
    reg = sym.ModeRegistry()
    ids = [
        reg.register(ss.SpinorMode(s=0.5, m=0.5, chi=0.1, u="a")),
        reg.register(ss.SpinorMode(s=0.5, m=0.5, chi=2.0, u="b")),
        reg.register(ss.SpinorMode(s=0.5, m=-0.5, chi=1.0, u="a")),
    ]
    sym.check_overlap_provider(ss.SpinorOverlap(reg), ids)
