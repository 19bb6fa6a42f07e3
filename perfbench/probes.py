"""Layer probes: timed calls into one layer's public functions at a time.

Each probe runs untraced, after the workload, with inputs made from the
workload seed.  Byte counts are computed from array sizes (the least
traffic a stage must cause; caches are ignored), not measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from gkpstab import analytic, checks, decoders, montecarlo
from gkpstab.modular import MODULAR_PERIOD, centered_mod, modular_measure
from gkpstab.noise import IidNoiseModel, reshape_noise, sample_iid

from jobs import SIGMA_GKP_15DB, build_code, code_sigma
from metrics import CODE_LABELS

PROBE_TRIALS = 1 << 16
F64 = 8


def timed(fn, *args, reps=3):
    """Median wall time of `reps` calls, and the last result."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def count_wraps(decoder, z, rng):
    """Decode z, counting the syndromes outside the central measurement cell.

    Counts the values the decoder hands to `modular_measure`, looked up
    by the decoders module at call time.
    """
    seen = [0, 0]
    measure = decoders.modular_measure

    def counting(value, *args, **kwargs):
        v = np.asarray(value)
        seen[0] += int(np.count_nonzero(np.abs(v) > 0.5 * MODULAR_PERIOD))
        seen[1] += v.size
        return measure(value, *args, **kwargs)

    decoders.modular_measure = counting
    try:
        decoder(z, rng)
    finally:
        decoders.modular_measure = measure
    return seen[0] / seen[1]


def stage_probe(built, seed, trials=PROBE_TRIALS):
    """One block per code label through draw, reshape, decode and modular."""
    out = {}
    mod_ns = mod_elems = noisy_ns = 0.0
    for i, label in enumerate(CODE_LABELS):
        code, decoder = built[label]
        width = 2 * code.n_modes
        model = IidNoiseModel(code_sigma(label), code.n_modes)
        t_draw, xi = timed(sample_iid, model, seed, trials, i)
        t_reshape, z = timed(reshape_noise, code.encoder, xi)
        out[f"noise.draw_ns_per_trial.{label}"] = 1e9 * t_draw / trials
        out[f"noise.reshape_ns_per_trial.{label}"] = 1e9 * t_reshape / trials
        out[f"noise.draw_bytes.{label}"] = trials * width * F64
        out[f"noise.reshape_bytes.{label}"] = 2 * trials * width * F64
        out[f"montecarlo.reduce_bytes.{label}"] = 2 * trials * F64
        if code.ancilla_kind != "gkp":
            continue
        rng = np.random.default_rng([seed, i])
        out[f"decoders.wrap_frac.{label}"] = count_wraps(decoder, z, rng)
        ancilla = np.ascontiguousarray(z[:, 2:])
        t_mod, _ = timed(centered_mod, ancilla)
        t_noisy, _ = timed(modular_measure, ancilla, SIGMA_GKP_15DB, rng)
        mod_ns += 1e9 * t_mod
        noisy_ns += 1e9 * t_noisy
        mod_elems += ancilla.size
    out["modular.centered_mod_ns_per_elem"] = mod_ns / mod_elems
    out["modular.measure_noisy_ns_per_elem"] = noisy_ns / mod_elems
    return out


def analytic_probe():
    gains = np.geomspace(1.0, np.pi / (2.0 * 0.1**2), 256)
    out = {}
    for name, fun in (
        ("tms_variance", lambda g: analytic.tms_variance(0.1, g)),
        ("tms_variance_noisy_gkp",
         lambda g: analytic.tms_variance_noisy_gkp(0.1, SIGMA_GKP_15DB, g)),
    ):
        t, _ = timed(lambda: [fun(g) for g in gains], reps=5)
        out[f"analytic.{name}_us"] = 1e6 * t / len(gains)
    return out


def codes_probe():
    return {
        f"codes.build_ms.{label}": 1e3 * timed(build_code, label, reps=21)[0]
        for label in CODE_LABELS
    }


def checks_probe():
    return {"checks.run_all_s": timed(checks.run_all_checks, reps=3)[0]}


def montecarlo_probe(built, seed, shards):
    """Per-call overhead of each code, and shard speed-up on gkp-tms."""
    out = {}
    for i, label in enumerate(CODE_LABELS):
        code, decoder = built[label]
        t, _ = timed(montecarlo.run, code, decoder, code_sigma(label), 1, seed + i, reps=5)
        out[f"montecarlo.call_overhead_ms.{label}"] = 1e3 * t
    code, decoder = built["gkp-tms"]
    n = 1 << 20
    serial, sharded = [], []
    for _ in range(2):
        for count, times in ((1, serial), (shards, sharded)):
            start = time.perf_counter()
            montecarlo.run(code, decoder, 0.1, n, seed, count)
            times.append(time.perf_counter() - start)
    out["montecarlo.shard_speedup"] = statistics.median(serial) / statistics.median(sharded)
    return out


def run_all(built, seed, shards):
    out = stage_probe(built, seed)
    out.update(analytic_probe())
    out.update(codes_probe())
    out.update(checks_probe())
    out.update(montecarlo_probe(built, seed, shards))
    return out
