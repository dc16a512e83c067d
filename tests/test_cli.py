import decimal
import fractions
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from idstat import cli, distributions, symmetry, wavepacket

SRC = Path(__file__).resolve().parents[1] / "src"


def _state_to_json(state: symmetry.NParticleState) -> dict:
    """The JSON object of a state, built term by term from ``state.terms``:
    the oracle for ``cli._state_text``."""
    return {
        "schema": 1,
        "n": state.n,
        "terms": [
            {"coeff": [t.coeff.real, t.coeff.imag], "modes": list(t.modes)}
            for t in state.terms
        ],
    }


def _csv_row(values) -> str:
    return ",".join("%.17g" % v if isinstance(v, float) else str(v) for v in values)


def reference_table(out, header, rows, fmt: str, name: str):
    """The table writer as a row loop: one formatted line and one print
    per row, from rows of Python floats and ints."""
    if fmt == "csv":
        print(",".join(header), file=out)
        for row in rows:
            print(_csv_row(row), file=out)
    else:
        print(json.dumps({name: [dict(zip(header, r)) for r in rows]},
                         indent=2, sort_keys=True), file=out)


@pytest.mark.parametrize("argv", [["selftest"], ["evolve", "--points", "4096"]])
def test_closed_stdout_exits_without_traceback(argv):
    # The reader is gone before the first write: selftest's output fails
    # on the final flush, evolve's in the middle of printing.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "idstat", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert proc.stderr == b""


def _run(argv):
    out = io.StringIO()
    return cli.run(argv, out), out.getvalue()


def _distribute_argv(stat, n_target, via="closed"):
    return ["distribute", "--stat", stat, "--T", "1", "--N", repr(n_target),
            "--V", "200", "--pmax", "6", "--bins", "32", "--via", via]


def _gas(stat):
    spec = distributions.GasSpec(volume=200.0, temperature=1.0, mass=1.0,
                                 statistics=stat)
    return spec, distributions.MomentumGrid(0.0, 6.0, 32)


@pytest.mark.parametrize("via", ["closed", "maxent"])
@pytest.mark.parametrize("stat,n_target", [("bose", 300.0), ("fermi", 900.0)])
def test_distribute_exits_zero(stat, n_target, via):
    code, text = _run(_distribute_argv(stat, n_target, via))
    assert code == 0
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert rows.shape == (32, 4)
    assert rows[:, 3].sum() == pytest.approx(n_target, rel=1e-9)


def test_distribute_bose_past_saturation_exits_3(capsys):
    cap = distributions.saturation_count(*_gas("bose"))
    code, _ = _run(_distribute_argv("bose", 1.01 * cap))
    assert code == 3
    assert capsys.readouterr().err.startswith("error: SaturationExceeded:")


@pytest.mark.parametrize("fill", [1.0, 1.5])
def test_distribute_fermi_overfull_exits_3(fill, capsys):
    total_modes = float(distributions.grid_mode_counts(*_gas("fermi")).sum())
    code, _ = _run(_distribute_argv("fermi", fill * total_modes))
    assert code == 3
    assert capsys.readouterr().err.startswith("error: NoBracket:")


def test_distribute_maxent_fermi_far_tail_exits_zero():
    # a + b*eps reaches ~45 on the top bins; the printed occupancies
    # still match the closed form at the solved mu
    spec = distributions.GasSpec(volume=200.0, temperature=0.5, mass=1.0,
                                 statistics="fermi")
    grid = distributions.MomentumGrid(0.0, 24.0, 64)
    eps = distributions.grid_energies(spec, grid)
    g = distributions.grid_mode_counts(spec, grid)
    n_target = float(distributions.occupancy(eps, float(eps.min()) + 0.5, spec,
                                             g_p=g).sum())
    code, text = _run(["distribute", "--stat", "fermi", "--T", "0.5",
                       "--N", repr(n_target), "--V", "200", "--pmax", "24",
                       "--bins", "64", "--via", "maxent"])
    assert code == 0
    occ = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)[:, 3]
    closed = distributions.occupancy(
        eps, distributions.solve_mu(n_target, spec, grid), spec, g_p=g)
    assert np.max(np.abs(occ - closed)) <= 1e-12 * closed.max()


def test_distribute_maxent_output_is_reproducible():
    argv = _distribute_argv("bose", 300.0, "maxent")
    first, second = _run(argv), _run(argv)
    assert first[0] == 0
    assert first == second


def test_exchange_phase_equal_angles_exits_3(capsys):
    code, _ = _run(["exchange-phase", "--spin", "0.5", "--chi-a", "1.2",
                    "--chi-b", "1.2"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: DegenerateAngles:")


def test_exchange_phase_half_integer_spin_prints_minus_one():
    code, text = _run(["exchange-phase", "--spin", "0.5", "--chi-a", "0.3",
                       "--chi-b", "2.1"])
    assert code == 0
    payload = json.loads(text)
    assert abs(complex(*payload["F"]) + 1.0) <= 1e-12
    product = complex(*payload["factor_a_to_b"]) * complex(*payload["factor_b_to_a"])
    assert abs(product - complex(*payload["F"])) <= 1e-15


@pytest.mark.parametrize("flag,value", [
    ("--spin", "nan"), ("--spin", "inf"), ("--chi-a", "inf"), ("--chi-b", "nan")])
def test_exchange_phase_non_finite_input_exits_2(capsys, flag, value):
    # a repeated option takes its last value
    code, text = _run(["exchange-phase", "--spin", "0.5", "--chi-a", "0.3",
                       "--chi-b", "2.1", flag, value])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ValueError:")


@pytest.mark.parametrize("flag,value", [
    ("--T", "nan"), ("--T", "inf"), ("--N", "nan"), ("--V", "inf"), ("--mass", "nan"),
    ("--mass", "1e160")])  # finite, but (mass * c**2) ** 2 passes the float range
def test_distribute_non_finite_input_exits_2(capsys, flag, value):
    code, text = _run(_distribute_argv("bose", 300.0) + [flag, value])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ValueError:")


@pytest.mark.parametrize("key,value,message", [
    ("c_light", 1e160, "mass*c**2 and its square must be finite"),
    ("h_planck", 1e110, "h**3 must be positive and finite")])
def test_distribute_constants_past_the_float_range_exit_2(tmp_path, capsys, key, value,
                                                          message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    code, text = _run(["--config", str(config), *_distribute_argv("bose", 300.0)])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {message}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("config,argv,message", [
    ({}, ["--stat", "fermi", "--pmax", "1e200"], "bin energies pass the float range"),
    ({}, ["--stat", "bose", "--pmax", "1e160", "--mass", "1e-10"],
     "bin energies pass the float range"),
    ({"c_light": 1e-10}, ["--stat", "bose", "--pmax", "1e160"],
     "bin mode counts pass the float range")])
@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_distribute_bins_past_the_float_range_exit_2(tmp_path, capsys, config, argv, message):
    # finite inputs whose bin energies or mode counts overflow
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, text = _run(["--config", str(path), "distribute", "--T", "1", "--N", "1", *argv])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {message}")
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_selftest_packet_width_past_the_float_range_exits_2(tmp_path, capsys):
    # at hbar = 1e300 the packets' squared width overflows at t = 0.7
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hbar": 1e300}))
    code, _ = _run(["--config", str(config), "selftest"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: the packet's squared width")
    assert len(err.splitlines()) == 1


def _subprocess_run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "idstat", *argv],
                          capture_output=True, env=env, timeout=120)


def test_distribute_bose_far_tail_prints_no_warning():
    # The top bins sit at x = (eps - mu)/kT past 709, where expm1
    # overflows; their occupancy 1/inf = 0 is right and no warning shows.
    proc = _subprocess_run(["distribute", "--stat", "bose", "--T", "0.03",
                            "--N", "5", "--V", "200", "--pmax", "24",
                            "--bins", "64"])
    assert proc.returncode == 0
    assert proc.stderr == b""
    rows = np.loadtxt(io.StringIO(proc.stdout.decode()), delimiter=",", skiprows=1)
    spec = distributions.GasSpec(volume=200.0, temperature=0.03, mass=1.0,
                                 statistics="bose")
    mu = distributions.solve_mu(5.0, spec, distributions.MomentumGrid(0.0, 24.0, 64))
    x = (rows[:, 1] - mu) / 0.03
    assert x.max() > 709.8
    for xi, g, occ in zip(x, rows[:, 2], rows[:, 3]):
        if xi > 709.8:
            assert occ == 0.0
        else:
            assert occ == pytest.approx(g / math.expm1(xi), rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("temperature,mass", [(1e-4, 1.0), (1.0, 1e5)])
def test_distribute_cold_bose_gas_exits_0(temperature, mass):
    # eps0/kT >= 1e4, so eps0 - 1e-12 kT rounds to eps0 and the upper end
    # of the mu bracket is the float below eps0; mu sits 0.6 kT (T 1e-4) or
    # 10 kT (mass 1e5) under eps0
    argv = ["distribute", "--stat", "bose", "--T", repr(temperature), "--mass",
            repr(mass), "--N", "5", "--V", "200", "--pmax", "6", "--bins", "32"]
    proc = _subprocess_run(argv)
    assert proc.returncode == 0
    assert proc.stderr == b""
    rows = np.loadtxt(io.StringIO(proc.stdout.decode()), delimiter=",", skiprows=1)
    spec = distributions.GasSpec(volume=200.0, temperature=temperature, mass=mass,
                                 statistics="bose")
    mu = distributions.solve_mu(5.0, spec, distributions.MomentumGrid(0.0, 6.0, 32))
    eps0 = rows[0, 1]
    assert eps0 - 1e-12 * temperature == eps0
    assert 0.1 < (eps0 - mu) / temperature < 20.0
    assert math.fsum(rows[:, 3]) == pytest.approx(5.0, rel=1e-10)
    for eps, g, occ in rows[:, 1:]:
        x = (eps - mu) / temperature
        expected = 0.0 if x > 709.8 else g / math.expm1(x)
        assert occ == pytest.approx(expected, rel=1e-14, abs=1e-300)


def test_distribute_bose_margin_below_float_spacing_exits_3_on_one_line():
    # At kT = 1e-300 the float below eps0, the upper end of the mu bracket,
    # lies ~1e284 kT down, where no bose mode holds a particle: the count
    # is 0 there, with no division by zero and no warning.
    proc = _subprocess_run(["distribute", "--stat", "bose", "--T", "1e-300",
                            "--N", "5", "--pmax", "10"])
    assert proc.returncode == 3
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: SaturationExceeded:")


def test_distribute_bose_at_subnormal_temperature_exits_3_on_one_line():
    # At kT = 1e-310, (eps - mu)/kT overflows to inf: occupation 0, with no
    # overflow warning before the error line.
    proc = _subprocess_run(["distribute", "--stat", "bose", "--T", "1e-310",
                            "--N", "5", "--pmax", "10"])
    assert proc.returncode == 3
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: SaturationExceeded:")


def test_balance_nonconvergence_exits_4_with_partial_sweeps(capsys):
    code, text = _run(["balance", "--steps", "3"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: NonConvergence")
    sweeps, population = text.split("\n\n")
    lines = sweeps.splitlines()
    assert lines[0] == "sweep,max_residual,entropy,total_quanta"
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    assert table[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert np.all(table[:, 1] > 1e-10)
    assert population.splitlines()[0] == "eps,s,p"
    # 8 bins x (s_max 16 + 1) rows of the final population table
    assert len(population.splitlines()) == 1 + 8 * 17


@pytest.mark.parametrize("flag,value", [
    ("--g0", "nan"), ("--g0", "inf"), ("--beta", "nan"), ("--mu", "inf")])
def test_balance_non_finite_input_exits_2(capsys, flag, value):
    code, text = _run(["balance", "--steps", "3", flag, value])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ValueError:")


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_balance_empty_grid_exits_2(capsys, bins):
    code, text = _run(["balance", "--bins", bins])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:")
    assert "energy grid is empty" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_evolve_without_time_samples_exits_2(capsys, samples):
    code, text = _run(["evolve", "--t-samples", samples])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: --t-samples must be at least 1")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["--t-start", "nan"], "--t-start and --t-stop must be finite"),
    (["--t-stop", "inf"], "--t-start and --t-stop must be finite"),
    (["--t-start=-1e308", "--t-stop", "1e308"], "--t-start and --t-stop must be finite"),
    (["--xmin=-inf"], "Grid requires finite x_min and x_max"),
    (["--xmax", "nan"], "Grid requires finite x_min and x_max"),
    # finite, but sigma**2 or k0**2 leaves the float range
    (["--t-samples", "1", "--sigma", "1e200"], "sigma**2 and m0*sigma**2 must be positive"),
    (["--sigma", "1e-200"], "sigma**2 and m0*sigma**2 must be positive"),
    (["--t-samples", "1", "--k0", "1e160"], "hbar*k0**2 must be finite")])
@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_evolve_non_finite_input_exits_2(capsys, argv, message):
    code, text = _run(["evolve", "--points", "16", *argv])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {message}")
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_evolve_refuses_psi_past_the_float_range(capsys):
    # finite inputs whose |t - t0| passes the float range: the width overflows
    code, text = _run(["evolve", "--points", "16", "--t-stop", "1e308", "--t-samples", "2"])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: psi passes the float range")
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_evolve_at_huge_hbar_and_t0_exits_0(tmp_path, capsys):
    # 2*hbar overflows at hbar = 1e308; at t = t0 the packet is still finite
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hbar": 1e308}))
    code, text = _run(["--config", str(config), "evolve", "--t-samples", "1",
                       "--points", "16"])
    assert code == 0
    assert capsys.readouterr().err == ""
    rows = text.splitlines()[1:]
    assert len(rows) == 16
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@pytest.mark.filterwarnings("error")
def test_evolve_keeps_far_rows_that_underflow_to_zero():
    # the far rows' amplitudes are exact +0, at t = t0 and also at t != t0,
    # where their phase a*xi^2/w2 passes the float range
    for samples in (1, 5):
        code, text = _run(["evolve", "--points", "16", "--xmax", "1e300",
                           "--t-samples", str(samples)])
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 16 * samples
        assert float(rows[0][2]) > 0.0   # t = t0
        for t in range(samples):
            near, *far = rows[16 * t:16 * (t + 1)]
            assert float(near[4]) > 0.0
            assert all(row[2:] == ["0", "0", "0"] for row in far)


@pytest.mark.parametrize("stat", ["bose", "fermi"])
def test_count_formula_matches_oracle(stat):
    for n in range(0, 6):
        for g in range(1, 6):
            if stat == "fermi" and n > g:
                continue
            argv = ["count", "--n", str(n), "--g", str(g), "--stat", stat]
            formula, oracle = _run(argv), _run(argv + ["--oracle"])
            assert formula[0] == 0
            assert formula == oracle


def test_count_boltzmann_oracle_exits_2(capsys):
    code, text = _run(["count", "--n", "2", "--g", "3", "--stat", "boltzmann",
                       "--oracle"])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ParseError:")


def test_seed_precedence_flag_env_config(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5}))
    monkeypatch.delenv("IDSTAT_SEED", raising=False)

    def balance(*pre):
        return _run([*pre, "balance", "--steps", "2"])[1]

    seed5, seed0 = balance("--seed", "5"), balance("--seed", "0")
    assert seed5 != seed0
    assert balance("--config", str(config)) == seed5
    monkeypatch.setenv("IDSTAT_SEED", "0")
    assert balance("--config", str(config)) == seed0
    monkeypatch.setenv("IDSTAT_SEED", "5")
    assert balance() == seed5
    assert balance("--seed", "0", "--config", str(config)) == seed0


def test_evolve_prints_values_that_round_trip():
    argv = ["evolve", "--k0", "0.7", "--x0", "0.3", "--points", "33",
            "--t-start", "0.1", "--t-stop", "2.3", "--t-samples", "4"]
    code, text = _run(argv)
    assert code == 0
    rows = [tuple(map(float, line.split(","))) for line in text.splitlines()[1:]]
    assert len(rows) == 4 * 33
    packet = wavepacket.WavePacket(m0=1.0, sigma=1.0, x0=0.3, t0=0.0, k0=0.7)
    for start in range(0, len(rows), 33):
        block = rows[start:start + 33]
        t = block[0][0]
        xs = np.array([r[1] for r in block])
        psi = wavepacket.evaluate(packet, xs, t)
        density = np.abs(psi) ** 2
        for (_, _, re, im, d), value, want in zip(block, psi, density):
            assert (re, im, d) == (value.real, value.imag, want)


cli_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300))


@st.composite
def cli_states(draw):
    n = draw(st.integers(0, 4))
    terms = draw(st.lists(st.tuples(
        st.tuples(cli_parts, cli_parts),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n)), max_size=3))
    return {"schema": 1, "n": n,
            "terms": [{"coeff": list(c), "modes": m} for c, m in terms]}


@given(cli_states())
@example({"schema": 1, "n": 3, "terms": []})
@example({"schema": 1, "n": 0, "terms": [{"coeff": [-0.0, 1e300], "modes": []}]})
@example({"schema": 1, "n": 1, "terms": [{"coeff": [1e-300, -0.0], "modes": [2]}]})
# odd n on the slot-pair path: 120 terms over d = 5 ids, d^2 = 25
@example({"schema": 1, "n": 5, "terms": [{"coeff": [0.5, -2.0], "modes": [4, 0, 3, 1, 2]}]})
# the int64 extremes beside small ids, slot pairs at even n (24 terms, d^2 = 16)
@example({"schema": 1, "n": 4, "terms": [
    {"coeff": [1.0, 0.25], "modes": [2**63 - 1, 0, -2**63, 1]}]})
# d^2 = 36 past the 12 terms: one piece per slot
@example({"schema": 1, "n": 3, "terms": [{"coeff": [1.0, 0.0], "modes": [0, 1, 2]},
                                         {"coeff": [0.0, -3.0], "modes": [5, 4, 3]}]})
def test_cli_symmetrize_prints_json_dumps_bytes(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "cli-state.json"
    path.write_text(json.dumps(raw))
    state = cli._state_from_json(raw)
    for signed in (False, True):
        out = io.StringIO()
        argv = ["symmetrize", "--input", str(path)] + (["--anti"] if signed else [])
        assert cli.run(argv, out) == 0
        projected = (symmetry.antisymmetrize(state) if signed
                     else symmetry.symmetrize(state))
        assert out.getvalue() == json.dumps(
            _state_to_json(projected), indent=2, sort_keys=True) + "\n"


@given(cli_states())
@example({"schema": 1, "n": 2, "terms": [{"coeff": [-0.0, -0.0], "modes": [1, -2]},
                                         {"coeff": [1e300, -0.0], "modes": [0, 0]}]})
def test_state_text_keeps_negative_zero(raw):
    # States built from terms keep -0.0 parts, which canonical merges
    # (sums from 0j) never produce.
    state = symmetry.NParticleState(raw["n"], tuple(
        symmetry.ProductTerm(complex(*t["coeff"]), t["modes"]) for t in raw["terms"]))
    assert cli._state_text(state) == json.dumps(
        _state_to_json(state), indent=2, sort_keys=True) + "\n"


table_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300,
                     1e300, 5e-324, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True))
table_ints = st.integers(-2**63, 2**63 - 1)


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from("if"), min_size=1, max_size=5))
    count = draw(st.integers(0, 6))
    columns = [np.array(draw(st.lists(table_ints if kind == "i" else table_floats,
                                      min_size=count, max_size=count)),
                        dtype=np.int64 if kind == "i" else float)
               for kind in kinds]
    return [f"c{k}" for k in range(len(kinds))], columns


# Seven floats that format apart although some compare equal (0.0, -0.0)
# or unequal to themselves (two NaN bit patterns).  A 28-row column that
# repeats or tiles them has a quarter as many distinct values as rows, so
# it is formatted once per distinct value.
_SPECIAL_FLOATS = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324])


@given(tables())
@example((["t", "s", "p"], [np.array([-0.0, math.nan, math.inf]),
                            np.array([0, -3, 2**62]),
                            np.array([1e-300, 1e300, -math.inf])]))
@example((["a", "b"], [np.array([], dtype=float), np.array([], dtype=np.int64)]))
@example((["t", "x", "s"], [np.repeat(_SPECIAL_FLOATS, 4), np.tile(_SPECIAL_FLOATS, 4),
                            np.array([-2**63, 2**63 - 1, *range(-13, 13)], dtype=np.int64)]))
def test_emit_table_writes_reference_bytes(table):
    header, columns = table
    rows = [tuple(int(c[i]) if c.dtype.kind == "i" else float(c[i]) for c in columns)
            for i in range(len(columns[0]))]
    for fmt in ("csv", "json"):
        got, want = io.StringIO(), io.StringIO()
        cli._emit_table(got, [("table", header, columns)], fmt)
        reference_table(want, header, rows, fmt, "table")
        assert got.getvalue() == want.getvalue()


def test_evolve_table_writes_reference_bytes():
    # 20 times x 64 points: the t and x columns repeat, the others do not
    argv = ["evolve", "--points", "64", "--t-samples", "20", "--k0", "0.7",
            "--x0", "-0.5", "--t-start", "-1", "--t-stop", "2"]
    code, text = _run(argv)
    assert code == 0
    times = np.linspace(-1.0, 2.0, 20)
    xs = np.linspace(-12.0, 12.0, 64)
    packet = wavepacket.WavePacket(m0=1.0, sigma=1.0, x0=-0.5, k0=0.7)
    psi = np.concatenate([wavepacket.evaluate(packet, xs, float(t)) for t in times])
    rows = [(float(t), float(x), p.real, p.imag, d) for (t, x), p, d in zip(
        itertools.product(times, xs), psi.tolist(), (np.abs(psi) ** 2).tolist())]
    want = io.StringIO()
    reference_table(want, ["t", "x", "re", "im", "density"], rows, "csv", "evolve")
    assert text == want.getvalue()


def _seventeen_digit_ties() -> list[float]:
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5, so that %.17g rounds a tie: m / 2^q with m odd and m * 5^q of
    18 digits, found with Python ints.  They lie between 2^-25 and 2^51.
    (An integer-valued double above 10^17 is a multiple of 16, so none of
    its expansions ends in 5 or in 50...0.)"""
    rng = np.random.default_rng(31)
    ties = []
    for q in range(2, 26):
        low = -(-10**17 // 5**q) | 1
        high = min(2**53, 10**18 // 5**q)
        for m in range(low, high, 2)[:4]:
            ties.append(math.ldexp(m, -q))
        for _ in range(4):
            m = int(rng.integers(low, high)) | 1
            ties.append(math.ldexp(m, -q))
    return ties


def _edge_floats() -> np.ndarray:
    tiny, huge = np.finfo(float).smallest_normal, np.finfo(float).max
    payload = np.array([0x7FF8_0000_0000_0123, 0xFFF0_0000_0000_0001], dtype=np.uint64)
    values = [0.0, math.nan, math.inf, 5e-324, np.nextafter(tiny, 0.0), tiny, huge,
              1e-5, 9.9999999999999991e-5, 1e-4, 1e16, 9.9999999999999984e16, 1e17,
              1e99, 9.9999999999999997e99, 1e100, 1.2345e-99, 1e-100, 5.5e-100,
              2.0**53 - 1, 2.0**53, np.nextafter(2.0**53, math.inf), 0.1, 1.0, 0.5]
    values += [*payload.view(float)]
    for k in range(-323, 309):
        power = float(f"1e{k}")
        values += [np.nextafter(power, 0.0), power, np.nextafter(power, math.inf)]
    ties = _seventeen_digit_ties()
    values += ties + [np.nextafter(t, side) for side in (0.0, math.inf) for t in ties]
    values = np.array(values, dtype=float)
    return np.concatenate([values, -values])


def _assert_writes_like_percent_g(values: np.ndarray):
    """A one-column CSV table of the values, as FMT writes each one."""
    got = io.StringIO()
    cli._emit_table(got, [("table", ["v"], [values])], "csv")
    want = "v\n" + ("%.17g\n" * values.size) % tuple(values.tolist())
    if got.getvalue() != want:
        for k, (g, w) in enumerate(zip(got.getvalue().split("\n")[1:], want.split("\n")[1:])):
            assert g == w, f"row {k}: {values[k]!r} written {g!r}, not {w!r}"
        assert got.getvalue() == want


def test_float_writer_matches_percent_g_on_random_bit_patterns():
    # every exponent, subnormals, NaN payloads and infinities, in blocks
    bits = np.random.default_rng(2031).integers(0, 2**64, size=200_000, dtype=np.uint64)
    _assert_writes_like_percent_g(bits.view(float))


def test_float_writer_matches_percent_g_at_the_edges():
    values = _edge_floats()
    ties = _seventeen_digit_ties()
    assert len(ties) > 100 and all(
        len(d := format(decimal.Decimal(t), "f").replace(".", "").strip("0")) == 18
        and d.endswith("5") for t in ties)
    _assert_writes_like_percent_g(values)
    # the character matrix itself: NUL past each text, and the lengths
    chars, lengths = cli._float_bytes(values)
    want = np.array(["%.17g" % v for v in values.tolist()], dtype=f"S{cli._WIDTH}")
    got = np.zeros((values.size, cli._WIDTH), dtype=np.uint8)
    got[:, :chars.shape[1]] = chars
    assert np.array_equal(got, want.view(np.uint8).reshape(values.size, cli._WIDTH))
    assert lengths.tolist() == [len(w) for w in want.tolist()]


def test_powers_of_ten_are_rounded_once_to_long_double():
    # the margin assumes each 10^(16-k) within half a unit in the last
    # place of long double, for every decade k of a nonzero double
    keys = np.arange(cli._K_MAX - cli._K_MIN + 1)
    digits = np.finfo(np.longdouble).nmant + 1
    for key, power in zip(keys.tolist(), cli._powers_of_ten(keys)):
        mantissa, exp = np.frexp(power)
        got = fractions.Fraction(int(np.ldexp(mantissa, digits))) * fractions.Fraction(2) ** (
            int(exp) - digits)
        unit = fractions.Fraction(2) ** (int(exp) - digits)
        assert abs(got - fractions.Fraction(10) ** (key + 16 - cli._K_MAX)) < unit / 2, key


def test_table_writer_without_long_double_digits_writes_reference_bytes():
    # A margin past 1/2 sends every value to FMT, as on platforms whose
    # long double is double; the tables must not change.
    calls = []
    text_bytes = cli._text_bytes

    def counted(fmt, values):
        calls.append((fmt, values.size))
        return text_bytes(fmt, values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_MARGIN", 1.0)
        patch.setattr(cli, "_text_bytes", counted)
        test_emit_table_writes_reference_bytes()
        values = _edge_floats()
        calls.clear()
        _assert_writes_like_percent_g(values)
        assert sum(n for fmt, n in calls if fmt == cli.FMT) == np.count_nonzero(values)
        argv = ["evolve", "--points", "1024", "--t-samples", "20", "--k0", "0.7",
                "--x0", "-0.5", "--t-start", "-1", "--t-stop", "2"]
        code, text = _run(argv)
    assert code == 0
    times = np.linspace(-1.0, 2.0, 20)
    xs = np.linspace(-12.0, 12.0, 1024)
    packet = wavepacket.WavePacket(m0=1.0, sigma=1.0, x0=-0.5, k0=0.7)
    psi = np.concatenate([wavepacket.evaluate(packet, xs, float(t)) for t in times])
    rows = [(float(t), float(x), p.real, p.imag, d) for (t, x), p, d in zip(
        itertools.product(times, xs), psi.tolist(), (np.abs(psi) ** 2).tolist())]
    want = io.StringIO()
    reference_table(want, ["t", "x", "re", "im", "density"], rows, "csv", "evolve")
    assert text == want.getvalue()


def test_cached_parser_keeps_no_values_between_runs():
    assert cli.build_parser() is cli.build_parser()
    assert _run(["evolve", "--points", "16"])[0] == 0
    code, text = _run(["evolve"])
    assert code == 0
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert rows.shape == (5 * 256, 5)
    assert np.unique(rows[:, 1]).size == 256


@functools.cache
def _default_balance(seed):
    return _run(["--seed", str(seed), "balance"])


@pytest.mark.parametrize("seed", [0, 2, 4, 7, 18])
def test_balance_defaults_converge(seed):
    code, text = _default_balance(seed)
    assert code == 0
    sweeps = np.loadtxt(text.split("\n\n")[0].splitlines()[1:], delimiter=",")
    assert sweeps[-1, 1] <= 1e-10
    assert len(sweeps) <= 200


@pytest.mark.parametrize("seed", [0, 2, 4, 7, 18])
def test_balance_entropy_never_falls_past_roundoff(seed):
    # no sweep lowers the printed (Stirling) packet entropy by more than
    # 16 eps |S|
    _, text = _default_balance(seed)
    entropy = np.loadtxt(text.split("\n\n")[0].splitlines()[1:], delimiter=",")[:, 2]
    bound = 16 * np.finfo(float).eps * np.abs(entropy[1:])
    assert np.all(np.diff(entropy) >= -bound)


def _csv_tables(text):
    return [np.loadtxt(block.splitlines()[1:], delimiter=",", ndmin=2)
            for block in text.split("\n\n")]


@pytest.mark.parametrize("argv,names", [
    (["evolve", "--points", "32", "--k0", "0.4"], ["evolve"]),
    (_distribute_argv("bose", 300.0, "maxent"), ["distribute"]),
    (_distribute_argv("fermi", 900.0), ["distribute"]),
    (["balance", "--steps", "2"], ["sweeps", "population"]),
])
def test_json_tables_equal_csv_tables(argv, names, capsys):
    csv_code, csv_text = _run(argv)
    json_code, json_text = _run(["--format", "json", *argv])
    assert json_code == csv_code
    csv_header = [block.splitlines()[0].split(",") for block in csv_text.split("\n\n")]
    doc = json.loads(json_text)
    assert sorted(doc) == sorted(names)
    for name, header, table in zip(names, csv_header, _csv_tables(csv_text)):
        rows = doc[name]
        assert [sorted(row) for row in rows] == [sorted(header)] * len(rows)
        assert np.array_equal(np.array([[row[h] for h in header] for row in rows]),
                              table)


def test_count_json_equals_csv():
    argv = ["count", "--n", "4", "--g", "6", "--stat", "fermi", "--entropy"]
    code, csv_text = _run(argv)
    json_code, json_text = _run(["--format", "json", *argv])
    assert code == json_code == 0
    count, entropy = csv_text.splitlines()
    assert json.loads(json_text) == {"count": count, "entropy": entropy}
    assert int(count) == 15
    assert float(entropy) == math.log(15)


def test_exchange_phase_json_equals_csv():
    argv = ["exchange-phase", "--spin", "1.5", "--chi-a", "0.2", "--chi-b", "1.9"]
    csv_run, json_run = _run(argv), _run(["--format", "json", *argv])
    assert csv_run[0] == json_run[0] == 0
    assert json.loads(json_run[1]) == json.loads(csv_run[1])


def test_selftest_failing_check_exits_1(monkeypatch):
    code, text = _run(["selftest"])
    assert code == 0
    assert all(line.startswith("ok ") for line in text.splitlines())
    monkeypatch.setattr(cli.spinstat, "exchange_phase", lambda *args: 2.0)
    code, text = _run(["selftest"])
    assert code == 1
    lines = text.splitlines()
    assert "FAIL exchange phase is (-1)^(2s)" in lines
    assert sum(line.startswith("FAIL ") for line in lines) == 1


def test_selftest_fails_on_wrong_packet_overlap(monkeypatch):
    monkeypatch.setattr(cli.wavepacket, "overlap", lambda p1, p2, t: 1.0 + 0j)
    code, text = _run(["selftest"])
    assert code == 1
    assert ("FAIL packet overlap is time independent and dips to exp(-d^2/sigma^2)"
            in text.splitlines())


def test_packet_integrals_without_scipy_integrate():
    # selftest, evolve, overlap and norm run without scipy.integrate
    script = textwrap.dedent("""
        import io, sys
        import idstat.cli
        from idstat import wavepacket as wp
        for argv in (["selftest"], ["evolve", "--points", "64", "--t-samples", "2"]):
            assert idstat.cli.run(argv, io.StringIO()) == 0, argv
        p = wp.WavePacket(m0=1.0, sigma=1.0, k0=0.5)
        assert abs(wp.overlap(p, p, 0.3) - 1.0) < 1e-12
        assert abs(wp.norm(p, 0.3, wp.Grid(-20.0, 20.0, 257)) - 1.0) < 1e-12
        print(sorted(m for m in sys.modules if m.startswith("scipy.integrate")))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


def test_cli_without_scipy(tmp_path):
    # count, symmetrize, exchange-phase and balance need no scipy, so the
    # CLI starts without loading it
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"schema": 1, "n": 2, "terms": [
        {"coeff": [1.0, 0.0], "modes": [0, 1]}]}))
    script = textwrap.dedent(f"""
        import io, sys
        import idstat, idstat.cli
        for argv in (["count", "--n", "3", "--g", "4", "--stat", "bose", "--entropy"],
                     ["symmetrize", "--input", {str(state)!r}],
                     ["exchange-phase", "--spin", "0.5", "--chi-a", "0.3",
                      "--chi-b", "2.1"],
                     ["balance"]):
            assert idstat.cli.run(argv, io.StringIO()) == 0, argv
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"
