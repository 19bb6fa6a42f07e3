"""Command-line entry point producing CSV experiment artifacts.

Each subcommand reproduces one standard experiment: output-noise
spreads of the GKP repetition code (fig3), the optimized two-mode
squeezing working point and its asymptotics (fig45), finite ancilla
squeezing gain curves (fig8), the higher-order squeezed repetition
scaling (appendix-d), the structural self-checks (checks), and a
generic code/decoder sweep (sweep).  Output is deterministic for a
given configuration and seed, down to the byte.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from ._guard import checked, counted, flag
from .analytic import gkp_repetition_stds, tms_asymptotic_optimum
from .codes import (
    gaussian_repetition,
    gkp_repetition,
    gkp_squeezed_repetition,
    gkp_tms,
)
from .decoders import Decoder
from .modular import MODULAR_PERIOD
from .montecarlo import run
from .noise import gkp_sigma_from_db
from .tuning import optimize
from .checks import run_all_checks

__all__ = [
    "ExperimentConfig",
    "cmd_fig3",
    "cmd_fig45",
    "cmd_fig8",
    "cmd_appendix_d",
    "cmd_sweep",
    "SWEEP_CODES",
    "main",
]

_FIG8_DB = (11.0, 12.8, 15.0, 20.0, 25.0, 30.0, math.inf)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and sampling settings shared by the subcommands.

    The field defaults are the command line's too: a shared flag left out
    leaves its field's default in place.
    """

    experiment: str
    sigma_min: float = 0.02
    sigma_max: float = 0.6
    points: int = 30
    log_spacing: bool = False
    n_trials: int = 100_000
    seed: int = 20260823
    shards: int = 1

    def __post_init__(self):
        counted("points", self.points, 2)
        counted("n_trials", self.n_trials, 1)
        counted("shards", self.shards, 1)
        counted("seed", self.seed, 0)
        checked("sigma_min", self.sigma_min, "positive")
        checked("sigma_max", self.sigma_max, "positive")
        flag("log_spacing", self.log_spacing)
        if not self.sigma_min < self.sigma_max:
            raise ValueError(f"sigma_min {self.sigma_min} is not below sigma_max {self.sigma_max}")

    def sigmas(self) -> np.ndarray:
        if self.log_spacing:
            return np.geomspace(self.sigma_min, self.sigma_max, self.points)
        return np.linspace(self.sigma_min, self.sigma_max, self.points)

    def describe(self) -> str:
        # shard count is omitted on purpose: it is an execution detail
        # that never changes the data rows
        spacing = "log" if self.log_spacing else "linear"
        return (
            f"experiment={self.experiment} sigma=[{self.sigma_min:g},"
            f"{self.sigma_max:g}] points={self.points} spacing={spacing} "
            f"trials={self.n_trials} seed={self.seed} lib={__version__}"
        )


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


class _CsvBuilder:
    def __init__(self, schema: str, config_line: str):
        self._buf = io.StringIO()
        self._writer = csv.writer(self._buf, lineterminator="\r\n")
        self.comment(f"schema: {schema} v1")
        self.comment(config_line)

    def comment(self, text: str):
        self._buf.write(f"# {text}\r\n")

    def row(self, values):
        self._writer.writerow([v if isinstance(v, str) else _fmt(v) for v in values])

    def text(self) -> str:
        return self._buf.getvalue()


def _sample(points, config: ExperimentConfig) -> list:
    """Monte Carlo of every (code, sigma) point, decoded for its sigma.

    The points share one pool of at most `config.shards` threads, and the
    reports come back in point order.  The pool takes the points with the
    most modes first, so the costliest runs do not form its tail.  A grid
    of fewer points than shards hands each run the spare workers for its
    blocks.  Every draw is a function of (seed, block index) only, so no
    report depends on `shards` or on the order the runs take.
    """
    shards = max(1, config.shards // len(points))

    def one(point):
        code, sigma = point
        return run(
            code, Decoder.for_code(code, sigma), sigma, config.n_trials, config.seed,
            shards, histogram=False,
        )

    workers = min(config.shards, len(points))
    if workers == 1:
        return [one(point) for point in points]
    # a stable sort: points of one mode count keep their order
    order = sorted(range(len(points)), key=lambda i: -points[i][0].n_modes)
    with ThreadPoolExecutor(workers) as pool:
        reports = dict(zip(order, pool.map(one, [points[i] for i in order])))
    return [reports[i] for i in range(len(points))]


def cmd_fig3(config: ExperimentConfig) -> str:
    """Analytic vs Monte Carlo output spreads of the GKP repetition code."""
    out = _CsvBuilder("gkpstab.fig3", config.describe())
    out.row(
        [
            "sigma",
            "sigma_q_analytic",
            "sigma_p_analytic",
            "sigma_q_mc",
            "sigma_p_mc",
            "se_q",
            "se_p",
        ]
    )
    code = gkp_repetition()
    sigmas = config.sigmas()
    reports = _sample([(code, float(sigma)) for sigma in sigmas], config)
    for sigma, report in zip(sigmas, reports):
        std_q, std_p = gkp_repetition_stds(float(sigma))
        out.row(
            [sigma, std_q, std_p, report.std_q, report.std_p,
             report.se_std_q, report.se_std_p]
        )
    return out.text()


def cmd_fig45(config: ExperimentConfig) -> str:
    """Optimized two-mode squeezing working point across channel noise.

    The whole sigma grid is one lockstep search.
    """
    out = _CsvBuilder("gkpstab.fig45", config.describe())
    out.row(
        [
            "sigma",
            "g_star",
            "squeeze_db",
            "sigma_L_star",
            "sigma_L_asymptotic",
            "g_star_asymptotic",
        ]
    )
    sigmas = config.sigmas()
    opt = optimize(sigmas)
    for i, sigma in enumerate(sigmas):
        g_asym, sig_asym = tms_asymptotic_optimum(float(sigma))
        out.row(
            [sigma, opt.g_star[i], opt.squeeze_db[i], opt.sigma_L_star[i],
             sig_asym, g_asym]
        )
    return out.text()


def cmd_fig8(config: ExperimentConfig, gkp_db=_FIG8_DB) -> str:
    """Optimized QEC gain for finite GKP ancilla squeezing.

    One curve per ancilla squeezing level in `gkp_db` (dB, inf for
    ideal), each one lockstep search over the sigma grid.
    """
    if not gkp_db:
        raise ValueError("gkp_db must name at least one squeezing level")
    out = _CsvBuilder("gkpstab.fig8", config.describe())
    sigmas = config.sigmas()
    for db in gkp_db:
        sigma_gkp = gkp_sigma_from_db(db)
        out.comment(f"s_gkp_db = {_fmt(db)}")
        out.row(["sigma", "qec_gain", "g_star", "squeeze_db"])
        opt = optimize(sigmas, sigma_gkp, "noisy_gkp")
        for i, sigma in enumerate(sigmas):
            out.row([sigma, opt.qec_gain[i], opt.g_star[i], opt.squeeze_db[i]])
    return out.text()


def cmd_appendix_d(
    config: ExperimentConfig, modes=(2, 3), wrap_constant: float = 0.08
) -> str:
    """Output-noise scaling of the squeezed repetition code.

    The squeezing is tied to the channel noise through
    lam = wrap_constant * sqrt(2 pi) / sigma, which keeps every modular
    measurement deep inside its unique-decoding window while the
    leading-order output noise scales like sigma^n.
    """
    if not modes:
        raise ValueError("modes must name at least one mode count")
    checked("wrap_constant", wrap_constant, "positive")
    out = _CsvBuilder("gkpstab.appendix_d", config.describe())
    out.comment(f"modes={list(modes)} wrap_constant={wrap_constant:g}")
    out.row(["n", "sigma", "sigma_L_mc", "slope"])
    sigmas = config.sigmas()
    points = [
        (gkp_squeezed_repetition(n_modes, wrap_constant * MODULAR_PERIOD / float(sigma)),
         float(sigma))
        for n_modes in modes
        for sigma in sigmas
    ]
    reports = _sample(points, config)
    spreads = np.reshape(
        [math.sqrt(0.5 * (r.std_q**2 + r.std_p**2)) for r in reports],
        (len(modes), len(sigmas)),
    )
    for n_modes, row in zip(modes, spreads):
        slope = float(np.polyfit(np.log(sigmas), np.log(row), 1)[0])
        for sigma, spread in zip(sigmas, row):
            out.row([n_modes, sigma, spread, slope])
    return out.text()


# code name -> builder, whose parameters are named as cmd_sweep's
SWEEP_CODES = {
    "gaussian-rep": gaussian_repetition,
    "gkp-rep": gkp_repetition,
    "gkp-tms": gkp_tms,
    "squeezed-rep": gkp_squeezed_repetition,
}


def cmd_sweep(
    config: ExperimentConfig,
    code_name: str,
    n_modes: int = 2,
    gain: float = 2.0,
    lam: float = 2.0,
    sigma_gkp: float = 0.0,
) -> str:
    """Monte Carlo summary of any built-in code over a noise grid.

    The header names only the parameters that the code's builder takes.
    """
    if code_name not in SWEEP_CODES:
        raise ValueError(f"unknown code {code_name!r}")
    builder = SWEEP_CODES[code_name]
    given = {"n_modes": n_modes, "gain": gain, "lam": lam, "sigma_gkp": sigma_gkp}
    params = {name: given[name] for name in inspect.signature(builder).parameters}
    code = builder(**params)
    out = _CsvBuilder("gkpstab.sweep", config.describe())
    out.comment(" ".join([f"code={code_name}"] + [f"{k}={v:g}" for k, v in params.items()]))
    out.row(
        ["sigma", "mean_q", "mean_p", "std_q", "std_p", "se_std_q", "se_std_p"]
    )
    sigmas = config.sigmas()
    reports = _sample([(code, float(sigma)) for sigma in sigmas], config)
    for sigma, report in zip(sigmas, reports):
        out.row(
            [sigma, report.mean_q, report.mean_p, report.std_q, report.std_p,
             report.se_std_q, report.se_std_p]
        )
    return out.text()


def _add_experiment(subs, name: str, command, summary: str, grid: tuple):
    """Subcommand `name`, which calls `command(config, **flags)`.

    The shared flags fill the ExperimentConfig fields.  Of those only the
    grid flags have defaults here, `grid` = (sigma_min, sigma_max, points),
    as the grid differs per experiment; the others, left out, leave their
    field's default in place.  The flags added to the result take the dests
    of `command`'s parameters and have no default either, so a flag left
    out leaves that parameter's default in place.
    """
    sigma_min, sigma_max, points = grid
    sub = subs.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    sub.set_defaults(run=command, experiment=name)
    sub.add_argument("--sigma-min", type=float, default=sigma_min)
    sub.add_argument("--sigma-max", type=float, default=sigma_max)
    sub.add_argument("--points", type=int, default=points)
    sub.add_argument("--log", dest="log_spacing", action="store_true",
                     help="log-spaced sigma grid")
    sub.add_argument("--trials", dest="n_trials", metavar="TRIALS", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--shards", type=int)
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkpstab",
        description="GKP-stabilizer code experiments as CSV artifacts",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_experiment(subs, "fig3", cmd_fig3, "GKP repetition output spreads",
                    (0.02, 0.6, 30))
    _add_experiment(subs, "fig45", cmd_fig45, "optimized two-mode squeezing point",
                    (0.02, 0.6, 30))

    f8 = _add_experiment(subs, "fig8", cmd_fig8, "QEC gain with noisy GKP ancillas",
                         (0.05, 0.6, 12))
    f8.add_argument("--gkp-db", type=float, action="append",
                    help="ancilla squeezing in dB, repeatable; 'inf' for ideal")

    ad = _add_experiment(subs, "appendix-d", cmd_appendix_d, "squeezed repetition scaling",
                         (0.01, 0.05, 5))
    ad.add_argument("--modes", type=int, action="append")
    ad.add_argument("--wrap-constant", type=float)

    subs.add_parser("checks", help="structural self-checks")

    sw = _add_experiment(subs, "sweep", cmd_sweep, "Monte Carlo sweep of a built-in code",
                         (0.05, 0.5, 10))
    sw.add_argument("--code", dest="code_name", required=True, choices=list(SWEEP_CODES))
    sw.add_argument("--modes", dest="n_modes", metavar="MODES", type=int)
    sw.add_argument("--gain", type=float)
    sw.add_argument("--lam", type=float)
    sw.add_argument("--gkp-sigma", dest="sigma_gkp", metavar="GKP_SIGMA", type=float)
    return parser


def _emit(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))

    if args.pop("command") == "checks":
        results = run_all_checks()
        for res in results:
            tag = "PASS" if res.passed else "FAIL"
            print(f"{tag} {res.name}: {res.detail}")
        return 0 if all(r.passed for r in results) else 1

    # what is left after the shared settings are the experiment's own flags
    run_experiment, out = args.pop("run"), args.pop("out")
    shared = {f.name: args.pop(f.name) for f in fields(ExperimentConfig) if f.name in args}
    try:
        text = run_experiment(ExperimentConfig(**shared), **args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: config error: {exc}\n")
    _emit(text, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
