"""Self-consistency checks for the linear-optics and density layers.

These are runtime checks, callable from the command line, that exercise
the structural identities the rest of the package leans on: symplectic
form preservation, the beam-splitter realization of two-mode squeezing,
transversality, passive/noise commutation, density normalization, and
the decoder weights derived from the codes.  Each check fixes its own
sizes and tolerances; the two randomized ones take only a seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import single_read_laws
from .codes import gaussian_repetition, gkp_repetition, gkp_tms, gkp_tms_pair
from .decoders import Decoder
from .noise import stream_rng
from .symplectic import (
    beam_splitter,
    compose,
    inverse,
    omega,
    single_mode_squeeze,
    sum_gate,
    two_mode_squeeze,
)

__all__ = [
    "CheckResult",
    "check_symplectic_randomized",
    "check_tms_beam_splitter_decomposition",
    "check_transversal_beam_splitter",
    "check_passive_noise_commutation",
    "check_pdf_normalization",
    "check_derived_decoder_weights",
    "run_all_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# each gate kind: a builder of (parameter, mode a, mode b, n_modes), and the
# range its parameter is drawn from
_GATES = (
    (lambda x, a, b, n: sum_gate(a, b, n), (0.0, 0.0)),
    (lambda x, a, b, n: single_mode_squeeze(math.exp(x), a, n), (-0.7, 0.7)),
    (two_mode_squeeze, (1.0, 5.0)),
    (beam_splitter, (0.0, 1.0)),
)


def _mode_pairs(gen, n_modes, shape):
    """Ordered pairs of distinct 1-based modes, uniform among the first
    `n_modes` (broadcast to `shape`)."""
    a = gen.integers(n_modes, size=shape)
    b = gen.integers(n_modes - 1, size=shape)
    return 1 + a, 1 + b + (b >= a)


def _groups(transforms) -> dict:
    """Mode count -> indices of the `transforms` with that many modes."""
    groups = {}
    for i, t in enumerate(transforms):
        groups.setdefault(t.n_modes, []).append(i)
    return groups


def _stack(transforms, idx) -> np.ndarray:
    return np.stack([transforms[i].matrix for i in idx])


def check_symplectic_randomized(seed: int = 20260823) -> CheckResult:
    """1000 random products of three gates preserve the symplectic form and
    invert exactly, within 1e-12 entrywise."""
    trials, tol = 1000, 1e-12
    gen = stream_rng(seed, 0)
    n_modes = gen.integers(2, 5, size=(trials, 1))
    kinds = gen.integers(len(_GATES), size=(trials, 3))
    low, high = np.array([bounds for _, bounds in _GATES]).T
    params = gen.uniform(low[kinds], high[kinds])
    mode_a, mode_b = _mode_pairs(gen, n_modes, kinds.shape)
    rows = zip(kinds.tolist(), params.tolist(), mode_a.tolist(), mode_b.tolist(),
               n_modes.ravel().tolist())
    candidates = [
        compose(*(_GATES[k][0](x, a, b, n) for k, x, a, b in zip(ks, xs, as_, bs)))
        for ks, xs, as_, bs, n in rows
    ]
    inverses = [inverse(t) for t in candidates]
    form, dev = [], []
    for n, idx in _groups(candidates).items():
        s, w = _stack(candidates, idx), omega(n)
        form.append(np.abs(s @ w @ s.swapaxes(1, 2) - w).max())
        dev.append(np.abs(s @ _stack(inverses, idx) - np.eye(2 * n)).max())
    # np.max keeps a NaN, which then fails the comparison
    worst_form, worst = float(np.max(form, initial=0.0)), float(np.max(dev, initial=0.0))
    return CheckResult(
        name="symplectic_randomized",
        passed=worst_form <= tol and worst <= tol,
        detail=f"max inverse deviation {worst:.3e} over {len(candidates)} transforms",
    )


def check_tms_beam_splitter_decomposition() -> CheckResult:
    """The `gkp_tms` encoder, two-mode squeezing, equals
    BS . Sq(1/lam) . Sq(lam) . BS^-1, within 1e-10 entrywise."""
    worst = 0.0
    for gain in (1.0, 1.5, 4.806, 20.0):
        lam = math.sqrt(gain) + math.sqrt(gain - 1.0)
        built = compose(
            beam_splitter(0.5, 1, 2, 2),
            single_mode_squeeze(1.0 / lam, 1, 2),
            single_mode_squeeze(lam, 2, 2),
            inverse(beam_splitter(0.5, 1, 2, 2)),
        )
        dev = float(np.abs(built.matrix - gkp_tms(gain).encoder.matrix).max())
        worst = max(worst, dev)
    return CheckResult(
        name="tms_beam_splitter_decomposition",
        passed=worst <= 1e-10,
        detail=f"max deviation {worst:.3e}",
    )


def check_transversal_beam_splitter() -> CheckResult:
    """Pairwise beam splitters commute with the `gkp_tms_pair` encoder, two
    parallel two-mode squeezers, within 1e-10 entrywise."""
    worst = 0.0
    for gain in (1.0, 1.5, 4.806, 20.0):
        pairs = gkp_tms_pair(gain).encoder
        for eta in (0.1, 0.5, 0.9):
            mixer = compose(beam_splitter(eta, 1, 2, 4), beam_splitter(eta, 3, 4, 4))
            dev = float(
                np.abs(
                    compose(mixer, pairs).matrix - compose(pairs, mixer).matrix
                ).max()
            )
            worst = max(worst, dev)
    return CheckResult(
        name="transversal_beam_splitter",
        passed=worst <= 1e-10,
        detail=f"max commutator entry {worst:.3e}",
    )


def check_passive_noise_commutation(seed: int = 20260823) -> CheckResult:
    """Isotropic noise slides through 50 random passive interferometers
    unchanged, within 1e-12 entrywise."""
    trials = 50
    gen = stream_rng(seed, 1)
    n_modes = gen.integers(2, 5, size=(trials, 1))
    depth = gen.integers(1, 4, size=trials)
    etas = gen.uniform(0.0, 1.0, size=(trials, 3))
    mode_a, mode_b = _mode_pairs(gen, n_modes, etas.shape)
    # the leading 2N x 2N block of each (N <= 4) factors a random covariance
    factors = gen.normal(size=(trials, 8, 8))
    var = gen.uniform(0.1, 2.0, size=trials)
    rows = zip(etas.tolist(), mode_a.tolist(), mode_b.tolist(), n_modes.ravel().tolist(),
               depth.tolist())
    nets = [
        compose(*(beam_splitter(e, a, b, n) for e, a, b in zip(es[:d], as_, bs)))
        for es, as_, bs, n, d in rows
    ]
    devs = []
    for n, idx in _groups(nets).items():
        s = _stack(nets, idx)
        f = factors[idx, : 2 * n, : 2 * n]
        v = f @ f.swapaxes(1, 2)
        noise = var[idx, None, None] * np.eye(2 * n)
        lhs = s @ (v + noise) @ s.swapaxes(1, 2)
        rhs = s @ v @ s.swapaxes(1, 2) + noise
        devs.append(np.abs(lhs - rhs).max())
    worst = float(np.max(devs, initial=0.0))
    return CheckResult(
        name="passive_noise_commutation",
        passed=worst <= 1e-12,
        detail=f"max deviation {worst:.3e} over {trials} interferometers",
    )


def check_pdf_normalization() -> CheckResult:
    """Output densities integrate to one, within 1e-6.

    Each law is integrated by the trapezoid rule on a uniform grid of step
    base_sigma / 4 over +-(max |shift| + 12 base_sigma).  For a mixture of
    Gaussians of width base_sigma the rule's aliasing error is of order
    exp(-2 pi^2 (base_sigma / h)^2) = exp(-32 pi^2) and the cut tails hold
    erfc(12 / sqrt 2) ~ 1e-33 of the mass, so any deviation above rounding
    comes from the density itself.
    """
    laws = []
    for sigma in (0.1, 0.3, 0.5):
        laws += single_read_laws(gkp_repetition(), sigma)
    for sigma, gain in ((0.1, 4.806), (0.3, 2.0), (0.5, 1.2)):
        laws.append(single_read_laws(gkp_tms(gain), sigma)[0])
    errs = []
    for law in laws:
        h = law.base_sigma / 4.0
        half = math.ceil((np.abs(law.shifts).max() + 12.0 * law.base_sigma) / h)
        f = law.pdf(h * np.arange(-half, half + 1))
        errs.append(abs(h * (f.sum() - 0.5 * (f[0] + f[-1])) - 1.0))
    worst = float(np.max(errs))
    return CheckResult(
        name="pdf_normalization",
        passed=worst <= 1e-6,
        detail=f"max |integral - 1| = {worst:.3e} over {len(laws)} laws",
    )


def check_derived_decoder_weights() -> CheckResult:
    """`Decoder.for_code` reproduces the closed-form weights within 1e-12:
    -1/2 and 1 for GKP repetition, a residual equal to the mean position
    noise for Gaussian repetition, and -c and c (relative to c) for
    two-mode squeezing, with c = 2 sqrt(G(G-1)) s^2 / ((2G-1) s^2 + 2
    s_gkp^2) at channel noise s."""
    sigma = 0.1
    rep = Decoder.for_code(gkp_repetition(), sigma)
    devs = [rep.weights[-2:] - ((-0.5, 0.0), (0.0, 1.0))]
    for n_modes in (2, 3, 5):
        code = gaussian_repetition(n_modes)
        # exact reads are linear: decoding the reshaped unit noises gives
        # the residual's response to each channel quadrature
        out = Decoder.for_code(code, sigma)(inverse(code.encoder).matrix.T)
        devs.append(out.xi_q - np.tile((1.0 / n_modes, 0.0), n_modes))
    for gain, sigma_gkp in itertools.product((1.5, 4.806, 20.0), (0.0, 0.0125, 0.05)):
        dec = Decoder.for_code(gkp_tms(gain, sigma_gkp), sigma)
        c = (2.0 * math.sqrt(gain * (gain - 1.0)) * sigma**2
             / ((2.0 * gain - 1.0) * sigma**2 + 2.0 * sigma_gkp**2))
        devs.append(np.array([-dec.weights[-2, 0], dec.weights[-1, 1]]) / c - 1.0)
    worst = max(float(np.abs(d).max()) for d in devs)
    return CheckResult(
        name="derived_decoder_weights",
        passed=worst <= 1e-12,
        detail=f"max deviation from the closed forms {worst:.3e}",
    )


def run_all_checks(seed: int = 20260823) -> list[CheckResult]:
    return [
        check_symplectic_randomized(seed=seed),
        check_tms_beam_splitter_decomposition(),
        check_transversal_beam_splitter(),
        check_passive_noise_commutation(seed=seed),
        check_pdf_normalization(),
        check_derived_decoder_weights(),
    ]
