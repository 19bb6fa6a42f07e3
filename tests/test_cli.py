import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gkpstab.analytic import tms_asymptotic_optimum
from gkpstab.checks import check_symplectic_randomized, run_all_checks
from gkpstab.cli import (
    SWEEP_CODES,
    ExperimentConfig,
    _fmt,
    cmd_appendix_d,
    cmd_fig3,
    cmd_fig45,
    cmd_fig8,
    cmd_sweep,
    main,
)
from gkpstab.noise import gkp_sigma_from_db
from gkpstab.symplectic import SymplecticTransform
from gkpstab.tuning import optimize


def _rows(text):
    lines = [ln for ln in text.split("\r\n") if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def test_fig3_output_shape_and_values():
    config = ExperimentConfig(
        "fig3", sigma_min=0.05, sigma_max=0.2, points=3, n_trials=20_000, seed=1
    )
    text = cmd_fig3(config)
    assert text.startswith("# schema: gkpstab.fig3 v1\r\n")
    header, rows = _rows(text)
    assert header == [
        "sigma",
        "sigma_q_analytic",
        "sigma_p_analytic",
        "sigma_q_mc",
        "sigma_p_mc",
        "se_q",
        "se_p",
    ]
    assert len(rows) == 3
    first = [float(v) for v in rows[0]]
    assert first[0] == 0.05
    assert first[1] == pytest.approx(0.05 / math.sqrt(2), rel=1e-6)
    assert first[2] == pytest.approx(0.05, rel=1e-6)
    # MC columns agree with the analytic ones at this sample size
    assert first[3] == pytest.approx(first[1], rel=0.05)
    assert first[4] == pytest.approx(first[2], rel=0.05)


def test_byte_identical_rerun():
    config = ExperimentConfig(
        "fig3", sigma_min=0.05, sigma_max=0.2, points=2, n_trials=5_000, seed=3
    )
    assert cmd_fig3(config) == cmd_fig3(config)
    sharded = ExperimentConfig(
        "fig3", sigma_min=0.05, sigma_max=0.2, points=2, n_trials=5_000, seed=3,
        shards=4,
    )
    assert cmd_fig3(config) == cmd_fig3(sharded)


@pytest.mark.parametrize(
    "experiment, points",
    [("appendix-d", 3), ("appendix-d", 2), ("sweep", 3), ("sweep", 2)],
)
def test_csv_identical_for_any_shard_count(experiment, points):
    # noisy decoders draw from the block streams, so concurrent grid points
    # must not reorder a draw; two points leave spare workers for the
    # blocks of each run, which straddle a block boundary
    def text(shards):
        if experiment == "appendix-d":
            config = ExperimentConfig(
                experiment, sigma_min=0.01, sigma_max=0.05, points=points,
                n_trials=70_000, seed=7, shards=shards,
            )
            return cmd_appendix_d(config, modes=(2, 3) if points == 3 else (2,))
        config = ExperimentConfig(
            experiment, sigma_min=0.05, sigma_max=0.5, points=points,
            n_trials=70_000, seed=7, shards=shards,
        )
        return cmd_sweep(config, "gkp-tms", sigma_gkp=0.05)

    one = text(1)
    for shards in (2, 3, 5):
        assert text(shards) == one


def test_fig45_columns_and_reference_row():
    config = ExperimentConfig("fig45", sigma_min=0.1, sigma_max=0.3, points=2)
    header, rows = _rows(cmd_fig45(config))
    assert header == [
        "sigma",
        "g_star",
        "squeeze_db",
        "sigma_L_star",
        "sigma_L_asymptotic",
        "g_star_asymptotic",
    ]
    row = [float(v) for v in rows[0]]
    assert row[1] == pytest.approx(4.8067, rel=1e-3)
    assert row[2] == pytest.approx(12.347, abs=5e-3)
    assert row[3] == pytest.approx(0.0358, abs=2e-4)


def test_fig8_blocks_and_ideal_limit():
    config = ExperimentConfig(
        "fig8", sigma_min=0.1, sigma_max=0.3, points=2, gkp_db=(30.0, math.inf)
    )
    text = cmd_fig8(config)
    assert "# s_gkp_db = 30\r\n" in text
    assert "# s_gkp_db = inf\r\n" in text
    blocks = text.split("# s_gkp_db = ")
    ideal_rows = [
        ln.split(",") for ln in blocks[2].split("\r\n")[2:] if ln
    ]
    for row in ideal_rows:
        sigma, qec_gain = float(row[0]), float(row[1])
        assert qec_gain == pytest.approx(optimize(sigma).qec_gain, rel=1e-9)


def test_batched_curves_match_lone_searches(capsys):
    # every curve is one search over its sigma grid; each row must be the
    # row its own lone search gives, in grid order
    def data_lines(argv):
        main(argv)
        return capsys.readouterr().out.split("\r\n")[2:-1]

    def line(values):
        return ",".join(_fmt(v) for v in values)

    sigmas = np.geomspace(0.02, 0.6, 5)
    want = ["sigma,g_star,squeeze_db,sigma_L_star,sigma_L_asymptotic,g_star_asymptotic"]
    for sigma in sigmas:
        opt = optimize(float(sigma))
        g_asym, sig_asym = tms_asymptotic_optimum(float(sigma))
        want.append(line([sigma, opt.g_star, opt.squeeze_db, opt.sigma_L_star,
                          sig_asym, g_asym]))
    assert data_lines(["fig45", "--points", "5", "--log"]) == want

    sigmas = np.linspace(0.05, 0.6, 4)
    want = []
    for db, sigma_gkp, objective in ((11.0, gkp_sigma_from_db(11.0), "noisy_gkp"),
                                     (math.inf, 0.0, "exact")):
        want += [f"# s_gkp_db = {_fmt(db)}", "sigma,qec_gain,g_star,squeeze_db"]
        for sigma in sigmas:
            opt = optimize(float(sigma), sigma_gkp, objective)
            want.append(line([sigma, opt.qec_gain, opt.g_star, opt.squeeze_db]))
    argv = ["fig8", "--points", "4", "--gkp-db", "11", "--gkp-db", "inf"]
    assert data_lines(argv) == want


def test_appendix_d_slopes():
    config = ExperimentConfig(
        "appendix-d", sigma_min=0.01, sigma_max=0.05, points=3,
        log_spacing=True, n_trials=4_000, seed=5,
    )
    header, rows = _rows(cmd_appendix_d(config))
    assert header == ["n", "sigma", "sigma_L_mc", "slope"]
    slopes = {int(r[0]): float(r[3]) for r in rows}
    assert slopes[2] == pytest.approx(2.0, abs=0.1)
    assert slopes[3] == pytest.approx(3.0, abs=0.1)


def test_sweep_gaussian_repetition():
    config = ExperimentConfig(
        "sweep", sigma_min=0.2, sigma_max=0.4, points=2, n_trials=30_000, seed=6
    )
    header, rows = _rows(cmd_sweep(config, "gaussian-rep", n_modes=3))
    assert header[0] == "sigma"
    row = [float(v) for v in rows[0]]
    assert row[3] == pytest.approx(0.2 / math.sqrt(3), rel=0.05)
    assert row[4] == pytest.approx(0.2 * math.sqrt(3), rel=0.05)


@pytest.mark.parametrize("code_name", sorted(SWEEP_CODES))
def test_sweep_runs_every_registered_code(code_name):
    config = ExperimentConfig(
        "sweep", sigma_min=0.05, sigma_max=0.1, points=2, n_trials=2_000, seed=8
    )
    text = cmd_sweep(config, code_name, n_modes=3, sigma_gkp=0.02)
    assert f"# code={code_name} " in text
    header, rows = _rows(text)
    assert len(header) == 7 and len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("fig3", points=1)
    with pytest.raises(ValueError):
        ExperimentConfig("fig3", n_trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig("fig3", sigma_min=0.3, sigma_max=0.1)
    for shards in (0, -2):
        with pytest.raises(ValueError, match=f"shards must be >= 1, got {shards}"):
            ExperimentConfig("fig3", shards=shards)


def test_config_rejects_non_finite_grid():
    for lo, hi in [(0.1, math.inf), (math.nan, 0.3), (0.1, math.nan)]:
        with pytest.raises(ValueError):
            ExperimentConfig("fig3", sigma_min=lo, sigma_max=hi)


def test_main_writes_file_and_reports_success(tmp_path):
    out = tmp_path / "spreads.csv"
    rc = main(
        [
            "fig3",
            "--points", "2",
            "--sigma-min", "0.1",
            "--sigma-max", "0.2",
            "--trials", "2000",
            "--seed", "11",
            "--out", str(out),
        ]
    )
    assert rc == 0
    data = out.read_bytes()
    assert data.startswith(b"# schema: gkpstab.fig3 v1\r\n")
    assert data.count(b"\r\n") == len(data.split(b"\r\n")) - 1


def test_main_exit_codes(capsys):
    with pytest.raises(SystemExit) as err:
        main(["fig3", "--points", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--code", "nonsense"])
    assert err.value.code == 2
    # a lambda at or below 1 cannot build the squeezed repetition code
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--code", "squeezed-rep", "--lam", "0.5", "--trials", "10"])
    assert err.value.code == 2


def test_main_checks_subcommand(capsys):
    assert main(["checks"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_import_leaves_out_numerical_integration():
    # a fresh interpreter, since the checks have loaded quad into this one
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = (
        "import sys, gkpstab, gkpstab.cli; print(sorted(m for m in sys.modules"
        " if m.startswith(('scipy.integrate', 'scipy.optimize'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out == "[]\n"


def test_checks_negative_control():
    bad = SymplecticTransform(1, np.array([[1.0, 0.1], [0.0, 1.1]]))
    result = check_symplectic_randomized(trials=5, extra_transforms=[bad])
    assert not result.passed


def test_run_all_checks_clean():
    assert all(r.passed for r in run_all_checks(seed=77))


def test_env_seed_default(monkeypatch, capsys):
    monkeypatch.setenv("GKPSTAB_SEED", "4242")
    main(["fig45", "--points", "2", "--sigma-min", "0.1", "--sigma-max", "0.2"])
    out = capsys.readouterr().out
    assert "seed=4242" in out
    # an explicit flag wins over the environment
    main(["fig45", "--points", "2", "--sigma-min", "0.1", "--sigma-max", "0.2",
          "--seed", "7"])
    out = capsys.readouterr().out
    assert "seed=7" in out
