import hashlib
import inspect
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gkpstab import checks, cli
from gkpstab.analytic import MixturePdf, tms_asymptotic_optimum
from gkpstab.checks import (
    check_passive_noise_commutation,
    check_pdf_normalization,
    check_symplectic_randomized,
    run_all_checks,
)
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
from gkpstab.codes import gaussian_repetition
from gkpstab.noise import gkp_sigma_from_db
from gkpstab.symplectic import SymplecticTransform, compose
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


# sha256 of each CSV at seed 7; a change that moves any byte must say so
_PINNED_CSV = [
    pytest.param("fig3 --points 4 --trials 5000",
                 "1014cb95bd4351a6d396da505bd8ee2de7e833a6fd57dc596ba7d401bcbd86fe",
                 id="fig3"),
    pytest.param("fig45 --points 4",
                 "75cdf51cec53d96be8a16b29886f04f7030892706ee20549fe37500ba86ca7dd",
                 id="fig45"),
    pytest.param("fig8 --points 3 --gkp-db 11 --gkp-db inf",
                 "396d9c8ae60c193ad34003ee98992d9f34ef5759122762e564c7110d30dfa2ad",
                 id="fig8"),
    pytest.param("appendix-d --points 3 --trials 5000 --modes 2 --modes 3 --modes 5",
                 "208a4e124336be753e9ee82f09fe3bf33a9276a218ca43b1aa18ed710c171d54",
                 id="appendix-d"),
    pytest.param("sweep --points 3 --trials 5000 --code gaussian-rep",
                 "7de556218b9659cde72d1b5c8ba6969f7449b8eadca201f27cf7ca3c7487328d",
                 id="sweep-gaussian-rep"),
    pytest.param("sweep --points 3 --trials 5000 --code gkp-rep",
                 "f4366692399305c7a3d2d34d62fa1a4ba9647f69901f5ef59880a5830052de6b",
                 id="sweep-gkp-rep"),
    pytest.param("sweep --points 3 --trials 5000 --code gkp-tms",
                 "bf17c7bde6eceee26c8c13dfcfaa83d3ad92c37b2746aacedfdca8dad1b8a975",
                 id="sweep-gkp-tms"),
    pytest.param("sweep --points 3 --trials 5000 --code squeezed-rep",
                 "8d5ec1aa6411c5c104ec6fda7d8030ba4c99aa34a675ab2b4abd7f31bce148b8",
                 id="sweep-squeezed-rep"),
    pytest.param("sweep --points 3 --trials 5000 --code gkp-tms --gkp-sigma 0.05",
                 "75ce3331ed1deeabf3952d925dd2484724862effb498e2e34222a45241b8e578",
                 id="sweep-gkp-tms-noisy"),
    pytest.param("sweep --points 3 --trials 5000 --code squeezed-rep --gkp-sigma 0.05",
                 "4ae7683ab727522760c477e016b09959e253082586948197b57dec0417bebc45",
                 id="sweep-squeezed-rep-noisy"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_CSV)
def test_csv_bytes_are_pinned(argv, digest, tmp_path):
    for shards in ("1", "2"):
        out = tmp_path / f"shards{shards}.csv"
        main(argv.split() + ["--seed", "7", "--shards", shards, "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, shards


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
    config = ExperimentConfig("fig8", sigma_min=0.1, sigma_max=0.3, points=2)
    text = cmd_fig8(config, gkp_db=(30.0, math.inf))
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


# the shared flags that keep these runs small; everything else is the
# subcommand's own, so each text must equal the direct call's
_SMALL = ["--sigma-min", "0.02", "--sigma-max", "0.05", "--points", "2",
          "--trials", "3000", "--seed", "9"]


@pytest.mark.parametrize(
    "argv, call",
    [
        (["fig8"], lambda c: cmd_fig8(c)),
        (["fig8", "--gkp-db", "13", "--gkp-db", "inf"],
         lambda c: cmd_fig8(c, gkp_db=(13.0, math.inf))),
        (["appendix-d"], lambda c: cmd_appendix_d(c)),
        (["appendix-d", "--modes", "4", "--wrap-constant", "0.1"],
         lambda c: cmd_appendix_d(c, modes=(4,), wrap_constant=0.1)),
        (["sweep", "--code", "squeezed-rep"], lambda c: cmd_sweep(c, "squeezed-rep")),
        (["sweep", "--code", "squeezed-rep", "--modes", "3", "--gain", "3.5",
          "--lam", "2.5", "--gkp-sigma", "0.03"],
         lambda c: cmd_sweep(c, "squeezed-rep", n_modes=3, gain=3.5, lam=2.5,
                             sigma_gkp=0.03)),
    ],
)
def test_flags_reach_their_parameters(argv, call, capsys):
    # a flag left out keeps the cmd_* default; a flag given reaches its parameter
    assert main(argv + _SMALL) == 0
    config = ExperimentConfig(argv[0], sigma_min=0.02, sigma_max=0.05, points=2,
                              n_trials=3000, seed=9)
    assert capsys.readouterr().out == call(config)


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


def test_appendix_d_rejects_empty_modes():
    config = ExperimentConfig("appendix-d", points=2, n_trials=10)
    with pytest.raises(ValueError, match="^modes must name at least one mode count$"):
        cmd_appendix_d(config, modes=())


def test_fig8_rejects_empty_gkp_db():
    # an empty list wrote a CSV of its two header comments alone
    config = ExperimentConfig("fig8", points=2)
    with pytest.raises(ValueError, match="^gkp_db must name at least one squeezing level$"):
        cmd_fig8(config, gkp_db=())


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


@pytest.mark.parametrize(
    "code_name, params",
    [
        ("gaussian-rep", "n_modes=2"),
        ("gkp-rep", "sigma_gkp=0"),
        ("gkp-tms", "gain=9 sigma_gkp=0"),
        ("squeezed-rep", "n_modes=2 lam=2 sigma_gkp=0"),
    ],
)
def test_sweep_header_names_only_the_builder_parameters(code_name, params, capsys):
    argv = ["sweep", "--code", code_name, "--points", "2", "--trials", "200"]
    main(argv + ["--gain", "9"])
    lines = capsys.readouterr().out.split("\r\n")
    assert lines[2] == f"# code={code_name} {params}"
    if code_name != "gkp-tms":
        # a flag the builder does not take leaves the data rows as they are
        main(argv)
        assert capsys.readouterr().out.split("\r\n")[3:] == lines[3:]


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
    assert ExperimentConfig("fig3", points=np.int64(3), n_trials=np.int32(5)).sigmas().size == 3


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("points", 2.5, "points must be an integer, got 2.5"),
        ("points", True, "points must be an integer, got True"),
        ("n_trials", 1e5, "n_trials must be an integer, got 100000.0"),
        ("shards", False, "shards must be an integer, got False"),
        ("points", 1, "points must be >= 2, got 1"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
    ],
)
def test_config_counts_must_be_integers(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig("fig3", **{field: value})


def test_config_log_spacing_must_be_a_bool():
    # a truthy string or number used to select the log grid
    for bad in ("no", 1, 0.0, None):
        message = f"log_spacing must be a bool, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig("fig3", log_spacing=bad, points=3)
    for flag in (True, np.True_):
        config = ExperimentConfig("fig3", log_spacing=flag, points=3)
        assert "spacing=log" in config.describe()
        assert config.sigmas()[1] == pytest.approx(math.sqrt(0.02 * 0.6))


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


@pytest.mark.parametrize(
    "argv, name",
    [
        ("fig8 --points 2 --gkp-db -7000", "squeeze_db"),
        ("sweep --code squeezed-rep --modes 3 --lam 1e200 --points 2 --trials 100", "lam"),
        ("appendix-d --sigma-min 1e-300 --sigma-max 0.01 --points 2 --trials 1000", "lam"),
        ("sweep --code squeezed-rep --modes 5 --lam 1e50 --points 2 --trials 100", "lam"),
        ("appendix-d --sigma-min 1e-160 --sigma-max 0.01 --points 2 --modes 2 --trials 100",
         "lam"),
    ],
    ids=["fig8", "sweep", "appendix-d", "sweep-matmul", "appendix-d-decoder"],
)
def test_config_error_names_an_argument_that_overflows(argv, name, capsys):
    # the first three raised a bare OverflowError, and the CLI printed a
    # traceback; the last two warned of an overflow in a matmul and then
    # named a nan matrix or nan weights
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as err:
            main(argv.split())
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"gkpstab: config error: {name} ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_config_error_names_the_seed_of_an_experiment_that_never_samples(capsys):
    for name in ("fig45", "fig8"):
        with pytest.raises(SystemExit) as err:
            main([name, "--seed", "-1", "--points", "2"])
        assert err.value.code == 2
        assert capsys.readouterr().err == "gkpstab: config error: seed must be >= 0, got -1\n"


def test_randomized_checks_name_a_bad_seed():
    for check in (check_symplectic_randomized, check_passive_noise_commutation):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            check(seed=1.5)


def test_main_checks_subcommand(capsys):
    assert main(["checks"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def _fresh_modules(code):
    # the last output line of `code` in a fresh interpreter, which then
    # prints the loaded scipy.integrate and scipy.optimize modules
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code += (
        "; import sys; print(sorted(m for m in sys.modules"
        " if m.startswith(('scipy.integrate', 'scipy.optimize'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    return out.splitlines()[-1]


def test_import_leaves_out_numerical_integration():
    assert _fresh_modules("import gkpstab, gkpstab.cli") == "[]"


def test_checks_command_leaves_out_numerical_integration():
    code = "from gkpstab.cli import main; assert main(['checks']) == 0"
    assert _fresh_modules(code) == "[]"


def test_checks_negative_control(monkeypatch):
    made = []

    def shearing(*gates):
        product = compose(*gates)
        made.append(product)
        if len(made) > 1:
            return product
        # q1 -> q1 + 0.1 q2 alone does not preserve the symplectic form
        shear = np.eye(2 * product.n_modes)
        shear[0, 2] = 0.1
        return SymplecticTransform(shear)

    monkeypatch.setattr(checks, "compose", shearing)
    assert not check_symplectic_randomized().passed


def test_checks_fix_their_sizes_and_tolerances():
    # only the randomized checks take an argument, the seed of their draws
    params = {
        name: list(inspect.signature(fn).parameters)
        for name, fn in vars(checks).items()
        if name.startswith("check_") or name == "run_all_checks"
    }
    seeded = {"check_symplectic_randomized", "check_passive_noise_commutation",
              "run_all_checks"}
    assert len(params) == 7
    assert params == {name: ["seed"] if name in seeded else [] for name in params}


def _mode_counts_of_products():
    # the mode count of each of the 1000 random products, in draw order
    counts = []

    def spy(*gates):
        counts.append(gates[0].n_modes)
        return compose(*gates)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "compose", spy)
        check_symplectic_randomized()
    return counts


@pytest.mark.parametrize("n_modes", [2, 3, 4])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_checks_flag_a_bad_product_anywhere_in_its_group(monkeypatch, n_modes, where):
    counts = _mode_counts_of_products()
    group = [i for i, n in enumerate(counts) if n == n_modes]
    target = {"first": group[0], "middle": group[len(group) // 2], "last": group[-1]}[where]
    made = []

    def corrupting(*gates):
        product = compose(*gates)
        made.append(product)
        if len(made) - 1 == target:
            # S -> (1 + 1e-9) S moves S Omega S^T by 2e-9 Omega
            return SymplecticTransform(product.matrix * (1.0 + 1e-9))
        return product

    monkeypatch.setattr(checks, "compose", corrupting)
    assert not check_symplectic_randomized().passed
    assert len(made) == 1000


def test_checks_flag_a_density_off_by_one_percent(monkeypatch):
    assert check_pdf_normalization().passed
    pdf = MixturePdf.pdf
    monkeypatch.setattr(MixturePdf, "pdf", lambda self, x: 1.01 * pdf(self, x))
    result = check_pdf_normalization()
    assert not result.passed
    assert "1.000e-02" in result.detail


def test_sample_submits_the_most_modes_first_and_returns_point_order(monkeypatch):
    submitted = []

    class SerialPool:
        # records the points it is handed, then runs them one by one
        def __init__(self, workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, points):
            submitted.extend((code.n_modes, sigma) for code, sigma in points)
            return map(fn, points)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "run", lambda code, dec, sigma, *args, **kw: (code.n_modes, sigma))
    points = [(gaussian_repetition(n), s) for n in (2, 5, 3) for s in (0.1, 0.2)]
    config = ExperimentConfig("appendix-d", shards=2, n_trials=10)
    assert cli._sample(points, config) == [(code.n_modes, s) for code, s in points]
    assert submitted == [(5, 0.1), (5, 0.2), (3, 0.1), (3, 0.2), (2, 0.1), (2, 0.2)]


def test_run_all_checks_clean():
    assert all(r.passed for r in run_all_checks(seed=77))


def test_flags_left_out_take_the_config_defaults(monkeypatch, capsys):
    seen = []
    fig45 = cli.cmd_fig45
    monkeypatch.setattr(cli, "cmd_fig45", lambda config: seen.append(config) or fig45(config))
    assert main(["fig45", "--points", "2"]) == 0
    want = ExperimentConfig("fig45", points=2)
    assert seen == [want]
    assert capsys.readouterr().out.split("\r\n")[1] == f"# {want.describe()}"


def test_seed_comes_from_the_flag_alone(monkeypatch, capsys):
    # GKPSTAB_SEED is an ordinary variable: a run with it set writes the
    # bytes of a run without it
    argv = ["fig45", "--points", "2", "--sigma-min", "0.1", "--sigma-max", "0.2"]
    monkeypatch.delenv("GKPSTAB_SEED", raising=False)
    main(argv)
    plain = capsys.readouterr().out
    monkeypatch.setenv("GKPSTAB_SEED", "4242")
    main(argv)
    assert capsys.readouterr().out == plain
    main(argv + ["--seed", "7"])
    assert "seed=7" in capsys.readouterr().out
