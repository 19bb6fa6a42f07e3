"""The three benchmark workloads and the checks on their outputs.

Every workload is a fixed list of operations, each one public call into
the package, built from the workload seed.  `run_pass` performs the list
once and times every operation; the checks run afterwards, outside the
timed region.  An operation fails when it raises or when its output
misses its oracle.

- mc-long: one long `montecarlo.run` per code label, shards=1.  Only
  the per-trial pipeline works here (noise draw, reshape matmul,
  modular decode, moment and histogram reduction).
- searches: no sampling.  Gain optimisation over a seed-jittered noise
  grid, both threshold searches, the critical-squeezing search and the
  fig3 grid of closed-form repetition spreads: only `analytic` and
  `tuning` work here.
- figures: the CLI experiments users run, in-process, with --shards equal
  to the core count.  The only workload with many short `run` calls and
  with the shard thread pool.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from gkpstab import analytic, cli, codes, decoders, montecarlo, tuning
from gkpstab.modular import MODULAR_PERIOD
from gkpstab.noise import gkp_sigma_from_db
from gkpstab.symplectic import inverse

from metrics import CODE_LABELS

TMS_GAIN = 4.806
SQUEEZED_SIGMA = 0.03
SIGMA_GKP_15DB = gkp_sigma_from_db(15.0)
SIGMA_GKP_20DB = gkp_sigma_from_db(20.0)
FIG3_GRID = np.linspace(0.02, 0.6, 30)
# agreement limit, in standard errors, between a sampled variance and its oracle
Z_LIMIT = 5.0


@dataclass(frozen=True)
class Size:
    mc_trials: int
    search_points: int
    critical_tol_db: float
    stds_points: int
    fig_args: dict


FULL = Size(
    mc_trials=1 << 21,
    search_points=60,
    critical_tol_db=0.01,
    stds_points=len(FIG3_GRID),
    fig_args={
        "fig3": ["fig3"],
        "fig45": ["fig45"],
        "fig8": ["fig8"],
        "appendix-d": ["appendix-d", "--modes", "2", "--modes", "3", "--modes", "5"],
        "checks": ["checks"],
    },
)
# a few seconds per workload, for the self-test
TINY = Size(
    mc_trials=1 << 18,
    search_points=4,
    critical_tol_db=1.0,
    stds_points=4,
    fig_args={
        "fig3": ["fig3", "--points", "4", "--trials", "5000"],
        "fig45": ["fig45", "--points", "4"],
        "fig8": ["fig8", "--points", "3", "--gkp-db", "11", "--gkp-db", "inf"],
        "appendix-d": ["appendix-d", "--points", "3", "--trials", "5000",
                       "--modes", "2", "--modes", "3", "--modes", "5"],
        "checks": ["checks"],
    },
)


_LAM = 0.08 * MODULAR_PERIOD / SQUEEZED_SIGMA
# label: (channel sigma, encoder factory, decoder factory)
CODES = {
    "gkp-rep": (0.3, codes.gkp_repetition, decoders.gkp_repetition_decoder),
    "gkp-tms": (
        0.1,
        lambda: codes.gkp_tms(TMS_GAIN),
        lambda: decoders.gkp_tms_decoder(TMS_GAIN, 0.1),
    ),
    "gkp-tms-15db": (
        0.1,
        lambda: codes.gkp_tms(TMS_GAIN, SIGMA_GKP_15DB),
        lambda: decoders.gkp_tms_decoder(TMS_GAIN, 0.1, SIGMA_GKP_15DB),
    ),
    "squeezed-rep-3": (
        SQUEEZED_SIGMA,
        lambda: codes.gkp_squeezed_repetition(3, _LAM),
        lambda: decoders.gkp_squeezed_repetition_decoder(3, _LAM),
    ),
    "squeezed-rep-5": (
        SQUEEZED_SIGMA,
        lambda: codes.gkp_squeezed_repetition(5, _LAM),
        lambda: decoders.gkp_squeezed_repetition_decoder(5, _LAM),
    ),
    "gaussian-rep-3": (
        0.2,
        lambda: codes.gaussian_repetition(3),
        lambda: decoders.gaussian_repetition_decoder(3),
    ),
}


def code_sigma(label: str) -> float:
    return CODES[label][0]


def build_code(label: str):
    """Encoder of a code label (codes and symplectic layers only)."""
    return CODES[label][1]()


def build_all():
    return {label: (CODES[label][1](), CODES[label][2]()) for label in CODE_LABELS}


def repetition_variances(sigma: float):
    """GKP repetition variances as finite cell-mass sums."""
    ns = np.arange(-40, 41)
    hi = (ns + 0.5) * MODULAR_PERIOD
    lo = (ns - 0.5) * MODULAR_PERIOD
    w_q = ndtr(hi / (math.sqrt(2) * sigma)) - ndtr(lo / (math.sqrt(2) * sigma))
    w_p = ndtr(hi / sigma) - ndtr(lo / sigma)
    var_q = sigma**2 / 2 + (math.pi / 2) * float((ns**2 * w_q).sum())
    var_p = sigma**2 + 2 * math.pi * float((ns**2 * w_p).sum())
    return var_q, var_p


def linear_response_variances(code, decoder, sigma: float):
    """sigma^2 |a|^2, with a read off by decoding small unit displacements."""
    t_inv = inverse(code.encoder).matrix.T
    eps = 1e-6
    z = eps * t_inv  # row j: reshaped noise of a displacement eps along quadrature j
    out = decoder(z, np.random.default_rng(0))
    a_q = np.asarray(out.xi_q) / eps
    a_p = np.asarray(out.xi_p) / eps
    return sigma**2 * float(a_q @ a_q), sigma**2 * float(a_p @ a_p)


def oracle_variances(label, code, decoder):
    sigma = code_sigma(label)
    if label == "gkp-rep":
        return repetition_variances(sigma)
    if label == "gkp-tms":
        var = analytic.tms_variance(sigma, TMS_GAIN)
        return var, var
    if label == "gkp-tms-15db":
        var = analytic.tms_variance_noisy_gkp(sigma, SIGMA_GKP_15DB, TMS_GAIN)
        return var, var
    return linear_response_variances(code, decoder, sigma)


class Op:
    """One timed public call, its result and the check applied to it."""

    __slots__ = ("workload", "label", "seconds", "result", "error", "check", "key")

    def __init__(self, workload, label, check=None, key=None):
        self.workload, self.label, self.check, self.key = workload, label, check, key
        self.seconds, self.result, self.error = 0.0, None, None


class Context:
    """Builds a workload's operations from the seed and performs them.

    With a tracer, every operation is also a span named after it.
    """

    def __init__(self, seed: int, size: Size, out_dir: str, shards: int):
        self.seed, self.size, self.out_dir, self.shards = seed, size, out_dir, shards
        self.built = build_all()
        self.oracles = {
            label: oracle_variances(label, *self.built[label]) for label in CODE_LABELS
        }
        gen = np.random.default_rng(seed)
        n = size.search_points
        base = np.linspace(0.05, 0.5, n)
        step = base[1] - base[0]
        self.search_sigmas = base + gen.uniform(-0.4, 0.4, n) * step
        self.stds_grid = FIG3_GRID[:: max(1, len(FIG3_GRID) // size.stds_points)][
            : size.stds_points
        ]
        self.fingerprints = {}

    def call(self, op, tracer, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            if tracer is None:
                op.result = fn(*args, **kwargs)
            else:
                op.result = tracer.call(f"op:{op.label}", fn, *args, **kwargs)
        except Exception as exc:  # the failure is counted, the pass goes on
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - start
        return op

    # -- mc-long ---------------------------------------------------------
    def mc_long(self, tracer=None):
        ops = []
        for i, label in enumerate(CODE_LABELS):
            code, decoder = self.built[label]
            if tracer is not None:
                decoder = tracer.wrap_decoder(f"decoders.decode:{label}", decoder)
            op = Op("mc-long", f"run:{label}", self._check_run, key=label)
            ops.append(self.call(
                op, tracer, montecarlo.run, code, decoder, code_sigma(label),
                self.size.mc_trials, self.seed * 100 + i, 1,
            ))
        return ops

    def _check_run(self, op):
        rep = op.result
        var_q, var_p = self.oracles[op.key]
        z_q = (rep.std_q**2 - var_q) / rep.se_var_q
        z_p = (rep.std_p**2 - var_p) / rep.se_var_p
        if max(abs(z_q), abs(z_p)) > Z_LIMIT:
            return f"variance off its oracle by z_q={z_q:.2f}, z_p={z_p:.2f}"
        return self._same_as_before(op, (rep.std_q, rep.std_p, rep.mean_q, rep.mean_p))

    # -- searches --------------------------------------------------------
    def searches(self, tracer=None):
        ops = []
        for sigma in self.search_sigmas:
            for sigma_gkp, objective in ((0.0, "exact"), (SIGMA_GKP_20DB, "noisy_gkp")):
                label = "optimize" if objective == "exact" else "optimize-noisy"
                op = Op("searches", label, self._check_optimum,
                        key=(float(sigma), sigma_gkp, objective))
                ops.append(self.call(
                    op, tracer, tuning.optimize, float(sigma), sigma_gkp, objective
                ))
        op = Op("searches", "optimize", self._check_working_point, key=(0.1, 0.0, "exact"))
        ops.append(self.call(op, tracer, tuning.optimize, 0.1))
        op = Op("searches", "threshold", self._check_threshold, key=0.0)
        ops.append(self.call(op, tracer, tuning.threshold_sigma, 0.0, 1e-4))
        op = Op("searches", "threshold-20db", self._check_threshold, key=SIGMA_GKP_20DB)
        ops.append(self.call(op, tracer, tuning.threshold_sigma, SIGMA_GKP_20DB, 1e-4))
        op = Op("searches", "critical", self._check_critical)
        ops.append(self.call(
            op, tracer, tuning.critical_gkp_squeezing_db, self.size.critical_tol_db
        ))
        for sigma in self.stds_grid:
            op = Op("searches", "gkp_repetition_stds", self._check_stds, key=float(sigma))
            ops.append(self.call(op, tracer, analytic.gkp_repetition_stds, float(sigma)))
        return ops

    def _check_optimum(self, op):
        sigma, sigma_gkp, objective = op.key
        opt = op.result
        if objective == "exact":
            fun = lambda g: analytic.tms_variance(sigma, g)  # noqa: E731
        else:
            fun = lambda g: analytic.tms_variance_noisy_gkp(sigma, sigma_gkp, g)  # noqa: E731
        bare = sigma * sigma
        if opt.g_star == 1.0:
            grid = np.geomspace(1.0, max(2.0, math.pi / (2.0 * bare)), 64)
            if min(fun(g) for g in grid) < bare * (1.0 - 1e-3):
                return "clamped to G = 1 although a gain beats the bare channel"
        else:
            var = fun(opt.g_star)
            if var >= bare or abs(opt.sigma_L_star**2 - var) > 1e-12:
                return f"reported optimum {opt.sigma_L_star} does not match its gain"
            for g in (opt.g_star * (1 - 1e-3), opt.g_star * (1 + 1e-3)):
                if g >= 1.0 and fun(g) < var - 1e-15:
                    return f"G*={opt.g_star} is not a local minimum"
        return self._same_as_before(op, (opt.g_star, opt.sigma_L_star))

    def _check_working_point(self, op):
        if abs(op.result.g_star - 4.8067) > 1e-3:
            return f"optimize(0.1) gave G*={op.result.g_star}, expected 4.8067"
        return self._check_optimum(op)

    def _check_threshold(self, op):
        thr = op.result
        if op.key == 0.0:
            if thr is None or abs(thr - 0.5585) > 1e-3:
                return f"ideal threshold {thr}, expected 0.5585"
            objective = "exact"
        else:
            if thr is None or not 0.05 < thr < 0.5585:
                return f"threshold with noisy ancillas {thr} outside (0.05, 0.5585)"
            objective = "noisy_gkp"
        below = tuning.optimize(thr - 3e-4, op.key, objective)
        above = tuning.optimize(thr + 3e-4, op.key, objective)
        if not (below.g_star > 1.0 and above.g_star == 1.0):
            return f"threshold {thr} does not separate helpful from clamped gains"
        return self._same_as_before(op, (thr,))

    def _check_critical(self, op):
        limit = max(0.1, self.size.critical_tol_db)
        if abs(op.result - 11.0) > limit:
            return f"critical squeezing {op.result} dB, expected 11.0 +- {limit}"
        return self._same_as_before(op, (op.result,))

    def _check_stds(self, op):
        expect = np.sqrt(repetition_variances(op.key))
        if not np.allclose(op.result, expect, rtol=1e-7, atol=0.0):
            return f"spreads {op.result} differ from the cell-mass sums {expect}"
        return None

    # -- figures ---------------------------------------------------------
    def figures(self, tracer=None):
        ops = []
        for fig, argv in self.size.fig_args.items():
            path = os.path.join(self.out_dir, f"{fig}.csv")
            if fig != "checks":
                argv = argv + ["--out", path, "--seed", str(self.seed),
                               "--shards", str(self.shards)]
            op = Op("figures", fig, self._check_figure, key=path)
            with contextlib.redirect_stdout(io.StringIO()):
                self.call(op, tracer, cli.main, argv)
            if fig != "checks" and op.error is None:
                with open(path, "rb") as handle:
                    op.result = (op.result, handle.read())
            ops.append(op)
        return ops

    def _check_figure(self, op):
        if op.label == "checks":
            return None if op.result == 0 else f"checks exited {op.result}"
        status, data = op.result
        if status != 0:
            return f"{op.label} exited {status}"
        rows = [r for r in csv.reader(io.StringIO(data.decode())) if r and r[0][0] != "#"]
        if op.label == "fig3":
            for row in rows[1:]:
                s, aq, ap, mq, mp, se_q, se_p = map(float, row)
                if abs(mq - aq) > Z_LIMIT * se_q or abs(mp - ap) > Z_LIMIT * se_p:
                    return f"fig3 sigma={s}: Monte Carlo spread off the analytic one"
        elif op.label == "appendix-d":
            for row in rows[1:]:
                if abs(float(row[3]) - int(row[0])) > 0.2:
                    return f"appendix-d slope {row[3]} for n={row[0]}"
        elif op.label == "fig45":
            for row in rows[1:]:
                s, g, _, sig_l = map(float, row[:4])
                if g < 1.0 or sig_l > s * (1 + 1e-12):
                    return f"fig45 sigma={s}: working point worse than no encoding"
        elif op.label == "fig8":
            for row in rows:
                if row[0] != "sigma" and float(row[1]) < 1.0 - 1e-12:
                    return f"fig8 sigma={row[0]}: QEC gain {row[1]} below 1"
        return self._same_as_before(op, hashlib.sha256(data).hexdigest())

    # -- shared ----------------------------------------------------------
    def _same_as_before(self, op, fingerprint):
        """Same seed, same output: every pass must reproduce the first."""
        key = (op.label, op.key)
        first = self.fingerprints.setdefault(key, fingerprint)
        return None if first == fingerprint else f"{op.label} output changed between passes"

    def run_pass(self, workload, tracer=None):
        return getattr(self, workload.replace("-", "_"))(tracer)


def failures(ops):
    """(op, reason) for every failed operation."""
    out = []
    for op in ops:
        reason = op.error
        if reason is None and op.check is not None:
            try:
                reason = op.check(op)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            out.append((op, reason))
    return out
