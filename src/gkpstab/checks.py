"""Self-consistency checks for the linear-optics and density layers.

These are runtime checks, callable from the command line, that exercise
the structural identities the rest of the package leans on: symplectic
form preservation, the beam-splitter realization of two-mode squeezing,
transversality, passive/noise commutation, density normalization, and
the decoder weights derived from the codes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import single_read_laws, tms_mixture
from .codes import gaussian_repetition, gkp_repetition, gkp_tms
from .decoders import Decoder
from .noise import stream_rng
from .symplectic import (
    SymplecticTransform,
    beam_splitter,
    compose,
    identity,
    inverse,
    is_symplectic,
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


def _random_gate(gen, n_modes: int) -> SymplecticTransform:
    kind = gen.integers(4)
    modes = 1 + gen.permutation(n_modes)[:2]
    if kind == 0:
        return sum_gate(int(modes[0]), int(modes[1]), n_modes)
    if kind == 1:
        return single_mode_squeeze(math.exp(gen.uniform(-0.7, 0.7)), int(modes[0]), n_modes)
    if kind == 2:
        return two_mode_squeeze(gen.uniform(1.0, 5.0), int(modes[0]), int(modes[1]), n_modes)
    return beam_splitter(gen.uniform(0.0, 1.0), int(modes[0]), int(modes[1]), n_modes)


def check_symplectic_randomized(
    trials: int = 1000,
    seed: int = 20260823,
    tol: float = 1e-12,
    extra_transforms=None,
) -> CheckResult:
    """Random gate products preserve the symplectic form and invert exactly."""
    gen = stream_rng(seed, 0)
    worst = 0.0
    ok = True
    candidates = list(extra_transforms) if extra_transforms else []
    for _ in range(trials):
        n_modes = int(gen.integers(2, 5))
        t = compose(*(_random_gate(gen, n_modes) for _ in range(3)))
        candidates.append(t)
    for t in candidates:
        if not is_symplectic(t, tol=tol):
            ok = False
        eye = np.eye(2 * t.n_modes)
        dev = float(np.abs(compose(t, inverse(t)).matrix - eye).max())
        worst = max(worst, dev)
        if dev > tol:
            ok = False
    return CheckResult(
        name="symplectic_randomized",
        passed=ok,
        detail=f"max inverse deviation {worst:.3e} over {len(candidates)} transforms",
    )


def check_tms_beam_splitter_decomposition(tol: float = 1e-10) -> CheckResult:
    """Two-mode squeezing equals BS . Sq(1/lam) . Sq(lam) . BS^-1."""
    worst = 0.0
    for gain in (1.0, 1.5, 4.806, 20.0):
        lam = math.sqrt(gain) + math.sqrt(gain - 1.0)
        built = compose(
            beam_splitter(0.5, 1, 2, 2),
            single_mode_squeeze(1.0 / lam, 1, 2),
            single_mode_squeeze(lam, 2, 2),
            inverse(beam_splitter(0.5, 1, 2, 2)),
        )
        dev = float(np.abs(built.matrix - two_mode_squeeze(gain, 1, 2, 2).matrix).max())
        worst = max(worst, dev)
    return CheckResult(
        name="tms_beam_splitter_decomposition",
        passed=worst <= tol,
        detail=f"max deviation {worst:.3e}",
    )


def check_transversal_beam_splitter(tol: float = 1e-10) -> CheckResult:
    """Pairwise beam splitters commute with parallel two-mode squeezers."""
    worst = 0.0
    for gain in (1.0, 1.5, 4.806, 20.0):
        for eta in (0.1, 0.5, 0.9):
            mixer = compose(beam_splitter(eta, 1, 2, 4), beam_splitter(eta, 3, 4, 4))
            pairs = compose(
                two_mode_squeeze(gain, 1, 3, 4), two_mode_squeeze(gain, 2, 4, 4)
            )
            dev = float(
                np.abs(
                    compose(mixer, pairs).matrix - compose(pairs, mixer).matrix
                ).max()
            )
            worst = max(worst, dev)
    return CheckResult(
        name="transversal_beam_splitter",
        passed=worst <= tol,
        detail=f"max commutator entry {worst:.3e}",
    )


def check_passive_noise_commutation(
    trials: int = 50, seed: int = 20260823, tol: float = 1e-12
) -> CheckResult:
    """Isotropic noise slides through passive interferometers unchanged."""
    gen = stream_rng(seed, 1)
    worst = 0.0
    for _ in range(trials):
        n_modes = int(gen.integers(2, 5))
        net = compose(
            *(
                _random_gate_passive(gen, n_modes)
                for _ in range(int(gen.integers(1, 4)))
            )
        )
        s = net.matrix
        a = gen.normal(size=(2 * n_modes, 2 * n_modes))
        v = a @ a.T
        var = gen.uniform(0.1, 2.0)
        lhs = s @ (v + var * np.eye(2 * n_modes)) @ s.T
        rhs = s @ v @ s.T + var * np.eye(2 * n_modes)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return CheckResult(
        name="passive_noise_commutation",
        passed=worst <= tol,
        detail=f"max deviation {worst:.3e} over {trials} interferometers",
    )


def _random_gate_passive(gen, n_modes: int) -> SymplecticTransform:
    modes = 1 + gen.permutation(n_modes)[:2]
    return beam_splitter(gen.uniform(0.0, 1.0), int(modes[0]), int(modes[1]), n_modes)


def check_pdf_normalization(tol: float = 1e-6) -> CheckResult:
    """Output densities integrate to one."""
    # imported here: scipy.integrate costs more start-up than the rest of
    # the package together, and only this check integrates numerically
    from scipy.integrate import quad

    worst = 0.0
    for sigma in (0.1, 0.3, 0.5):
        half = math.sqrt(math.pi / 2.0)
        reach = 4 * half + 8 * sigma
        law_q, law_p = single_read_laws(gkp_repetition(), sigma)
        centers_q = [n * half for n in range(-4, 5)]
        norm_q, _ = quad(law_q.pdf, -reach, reach, points=centers_q, limit=200)
        centers_p = [n * 2 * half for n in range(-3, 4)]
        norm_p, _ = quad(law_p.pdf, -reach, reach, points=centers_p, limit=200)
        worst = max(worst, abs(norm_q - 1.0), abs(norm_p - 1.0))
    for sigma, gain in ((0.1, 4.806), (0.3, 2.0), (0.5, 1.2)):
        mix = tms_mixture(sigma, gain)
        reach = float(np.abs(mix.shifts).max() + 8 * mix.base_sigma)
        norm, _ = quad(
            mix.pdf, -reach, reach, points=list(mix.shifts), limit=200
        )
        worst = max(worst, abs(norm - 1.0))
    return CheckResult(
        name="pdf_normalization",
        passed=worst <= tol,
        detail=f"max |integral - 1| = {worst:.3e}",
    )


def check_derived_decoder_weights(tol: float = 1e-12) -> CheckResult:
    """`Decoder.for_code` reproduces the closed-form weights: -1/2 and 1
    for GKP repetition, a residual equal to the mean position noise for
    Gaussian repetition, and -c and c for two-mode squeezing, with
    c = 2 sqrt(G(G-1)) s^2 / ((2G-1) s^2 + 2 s_gkp^2) at channel noise s."""
    sigma = 0.1
    rep = Decoder.for_code(gkp_repetition(), sigma)
    devs = [np.subtract(rep.c_q + rep.c_p, (-0.5, 0.0, 0.0, 1.0))]
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
        devs.append(np.array([-dec.c_q[0], dec.c_p[1]]) / c - 1.0)
    worst = max(float(np.abs(d).max()) for d in devs)
    return CheckResult(
        name="derived_decoder_weights",
        passed=worst <= tol,
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
