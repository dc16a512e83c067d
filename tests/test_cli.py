import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from idstat import cli, distributions

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
