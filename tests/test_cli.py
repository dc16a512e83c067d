import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from idstat import cli, distributions, symmetry, wavepacket

SRC = Path(__file__).resolve().parents[1] / "src"


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
            cli._state_to_json(projected), indent=2, sort_keys=True) + "\n"


@given(cli_states())
@example({"schema": 1, "n": 2, "terms": [{"coeff": [-0.0, -0.0], "modes": [1, -2]},
                                         {"coeff": [1e300, -0.0], "modes": [0, 0]}]})
def test_state_text_keeps_negative_zero(raw):
    # States built from terms keep -0.0 parts, which canonical merges
    # (sums from 0j) never produce.
    state = symmetry.NParticleState(raw["n"], tuple(
        symmetry.ProductTerm(complex(*t["coeff"]), t["modes"]) for t in raw["terms"]))
    assert cli._state_text(state) == json.dumps(
        cli._state_to_json(state), indent=2, sort_keys=True)
