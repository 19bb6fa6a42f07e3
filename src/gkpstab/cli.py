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
import io
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
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

_DEFAULT_SEED = 20260823
_FIG8_DB = (11.0, 12.8, 15.0, 20.0, 25.0, 30.0, math.inf)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid, sampling, and output settings shared by the subcommands."""

    experiment: str
    sigma_min: float = 0.02
    sigma_max: float = 0.6
    points: int = 30
    log_spacing: bool = False
    n_trials: int = 100_000
    seed: int = _DEFAULT_SEED
    shards: int = 1
    gkp_db: tuple = ()
    out: str = "-"

    def __post_init__(self):
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not (math.isfinite(self.sigma_max) and 0 < self.sigma_min < self.sigma_max):
            raise ValueError(
                f"need finite 0 < sigma_min < sigma_max, got "
                f"[{self.sigma_min}, {self.sigma_max}]"
            )

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
    reports come back in point order.  A grid of fewer points than shards
    hands each run the spare workers for its blocks.  Every draw is a
    function of (seed, block index) only, so no report depends on `shards`.
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
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(one, points))


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


def cmd_fig8(config: ExperimentConfig) -> str:
    """Optimized QEC gain for finite GKP ancilla squeezing.

    Each curve is one lockstep search over the sigma grid.
    """
    out = _CsvBuilder("gkpstab.fig8", config.describe())
    db_list = config.gkp_db if config.gkp_db else _FIG8_DB
    sigmas = config.sigmas()
    for db in db_list:
        sigma_gkp = gkp_sigma_from_db(db)
        objective = "noisy_gkp" if sigma_gkp > 0 else "exact"
        out.comment(f"s_gkp_db = {_fmt(db)}")
        out.row(["sigma", "qec_gain", "g_star", "squeeze_db"])
        opt = optimize(sigmas, sigma_gkp, objective)
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


# code name -> builder(n_modes, gain, lam, sigma_gkp) -> CodeSpec, with the
# arguments abbreviated n, g, lam, t
SWEEP_CODES = {
    "gaussian-rep": lambda n, g, lam, t: gaussian_repetition(n),
    "gkp-rep": lambda n, g, lam, t: gkp_repetition(t),
    "gkp-tms": lambda n, g, lam, t: gkp_tms(g, t),
    "squeezed-rep": lambda n, g, lam, t: gkp_squeezed_repetition(n, lam, t),
}


def cmd_sweep(
    config: ExperimentConfig,
    code_name: str,
    n_modes: int = 2,
    gain: float = 2.0,
    lam: float = 2.0,
    sigma_gkp: float = 0.0,
) -> str:
    """Monte Carlo summary of any built-in code over a noise grid."""
    if code_name not in SWEEP_CODES:
        raise ValueError(f"unknown code {code_name!r}")
    code = SWEEP_CODES[code_name](n_modes, gain, lam, sigma_gkp)
    out = _CsvBuilder("gkpstab.sweep", config.describe())
    out.comment(
        f"code={code_name} n_modes={n_modes} gain={gain:g} lam={lam:g} "
        f"sigma_gkp={sigma_gkp:g}"
    )
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


def _add_grid_flags(sub, sigma_min: float, sigma_max: float, points: int):
    sub.add_argument("--sigma-min", type=float, default=sigma_min)
    sub.add_argument("--sigma-max", type=float, default=sigma_max)
    sub.add_argument("--points", type=int, default=points)
    sub.add_argument("--log", action="store_true", help="log-spaced sigma grid")
    sub.add_argument("--trials", type=int, default=100_000)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--shards", type=int, default=1)
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkpstab",
        description="GKP-stabilizer code experiments as CSV artifacts",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    f3 = subs.add_parser("fig3", help="GKP repetition output spreads")
    _add_grid_flags(f3, 0.02, 0.6, 30)

    f45 = subs.add_parser("fig45", help="optimized two-mode squeezing point")
    _add_grid_flags(f45, 0.02, 0.6, 30)

    f8 = subs.add_parser("fig8", help="QEC gain with noisy GKP ancillas")
    _add_grid_flags(f8, 0.05, 0.6, 12)
    f8.add_argument(
        "--gkp-db",
        type=float,
        action="append",
        default=None,
        help="ancilla squeezing in dB, repeatable; 'inf' for ideal",
    )

    ad = subs.add_parser("appendix-d", help="squeezed repetition scaling")
    _add_grid_flags(ad, 0.01, 0.05, 5)
    ad.add_argument("--modes", type=int, action="append", default=None)
    ad.add_argument("--wrap-constant", type=float, default=0.08)

    subs.add_parser("checks", help="structural self-checks")

    sw = subs.add_parser("sweep", help="Monte Carlo sweep of a built-in code")
    _add_grid_flags(sw, 0.05, 0.5, 10)
    sw.add_argument("--code", required=True, choices=list(SWEEP_CODES))
    sw.add_argument("--modes", type=int, default=2)
    sw.add_argument("--gain", type=float, default=2.0)
    sw.add_argument("--lam", type=float, default=2.0)
    sw.add_argument("--gkp-sigma", type=float, default=0.0)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("GKPSTAB_SEED", _DEFAULT_SEED))


def _config_from(args) -> ExperimentConfig:
    return ExperimentConfig(
        experiment=args.command,
        sigma_min=args.sigma_min,
        sigma_max=args.sigma_max,
        points=args.points,
        log_spacing=args.log,
        n_trials=args.trials,
        seed=_resolve_seed(args),
        shards=args.shards,
        gkp_db=tuple(args.gkp_db) if getattr(args, "gkp_db", None) else (),
        out=args.out,
    )


def _emit(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "checks":
        results = run_all_checks()
        for res in results:
            tag = "PASS" if res.passed else "FAIL"
            print(f"{tag} {res.name}: {res.detail}")
        return 0 if all(r.passed for r in results) else 1

    try:
        config = _config_from(args)
        if args.command == "fig3":
            text = cmd_fig3(config)
        elif args.command == "fig45":
            text = cmd_fig45(config)
        elif args.command == "fig8":
            text = cmd_fig8(config)
        elif args.command == "appendix-d":
            modes = tuple(args.modes) if args.modes else (2, 3)
            text = cmd_appendix_d(config, modes, args.wrap_constant)
        else:
            text = cmd_sweep(
                config, args.code, args.modes, args.gain, args.lam, args.gkp_sigma
            )
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: config error: {exc}\n")
    _emit(text, config.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
