"""Encoding circuits for oscillator-into-oscillators codes.

Each code stores its encoding circuit together with how many leading
modes carry data and what kind of ancilla fills the remaining modes:
canonical (or finitely squeezed) GKP states, or position eigenstates
for the Gaussian repetition benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._guard import checked, counted
from .symplectic import (
    SymplecticTransform,
    compose,
    direct_sum,
    identity,
    inverse,
    single_mode_squeeze,
    sum_gate,
    two_mode_squeeze,
)

__all__ = [
    "CodeSpec",
    "gaussian_repetition",
    "gkp_repetition",
    "gkp_tms",
    "gkp_tms_pair",
    "gkp_squeezed_repetition",
    "logical_gate",
]

_ANCILLA_KINDS = ("gkp", "position")


@dataclass(frozen=True)
class CodeSpec:
    """An encoding circuit plus the ancilla configuration it expects.

    Data modes come first: modes 1..data_modes hold data, the rest hold
    ancillas.  `ancilla_sigma_gkp` is the per-quadrature noise of each
    GKP ancilla (0 means canonical states) and is ignored for
    position-eigenstate ancillas.
    """

    encoder: SymplecticTransform
    data_modes: int
    ancilla_kind: str = "gkp"
    ancilla_sigma_gkp: float = 0.0

    def __post_init__(self):
        if not isinstance(self.encoder, SymplecticTransform):
            raise ValueError(f"encoder must be a SymplecticTransform, got {type(self.encoder).__name__}")
        if self.ancilla_kind not in _ANCILLA_KINDS:
            raise ValueError(
                f"ancilla_kind must be one of {_ANCILLA_KINDS}, got {self.ancilla_kind!r}"
            )
        if counted("data_modes", self.data_modes, 1) >= self.encoder.n_modes:
            raise ValueError(
                f"data_modes must lie in [1, {self.encoder.n_modes - 1}], got {self.data_modes}"
            )
        checked("ancilla_sigma_gkp", self.ancilla_sigma_gkp, "nonnegative")

    @property
    def n_modes(self) -> int:
        return self.encoder.n_modes


def gaussian_repetition(n_modes: int) -> CodeSpec:
    """Repetition of the data position onto position-eigenstate ancillas.

    The encoder is the chain of SUM gates from mode 1 onto modes
    2..n_modes.  This all-Gaussian benchmark squeezes the position noise
    as sigma/sqrt(N) but inflates the momentum noise to sqrt(N) sigma.
    """
    counted("n_modes", n_modes, 2)
    enc = identity(n_modes)
    for k in range(2, n_modes + 1):
        enc = compose(sum_gate(1, k, n_modes), enc)
    return CodeSpec(encoder=enc, data_modes=1, ancilla_kind="position")


def gkp_repetition(sigma_gkp: float = 0.0) -> CodeSpec:
    """Two-mode repetition code with a GKP ancilla, encoded by one SUM gate."""
    return CodeSpec(
        encoder=sum_gate(1, 2, 2),
        data_modes=1,
        ancilla_kind="gkp",
        ancilla_sigma_gkp=sigma_gkp,
    )


def gkp_tms(gain: float, sigma_gkp: float = 0.0) -> CodeSpec:
    """Two-mode squeezing code with a GKP ancilla and amplification gain G."""
    return CodeSpec(
        encoder=two_mode_squeeze(gain, 1, 2, 2),
        data_modes=1,
        ancilla_kind="gkp",
        ancilla_sigma_gkp=sigma_gkp,
    )


def gkp_tms_pair(gain: float, sigma_gkp: float = 0.0) -> CodeSpec:
    """Two data modes protected by independent two-mode squeezing codes.

    Data modes 1 and 2 pair with GKP ancillas 3 and 4.  Used to check
    that balanced beam splitters across the two data modes act
    transversally.
    """
    enc = compose(two_mode_squeeze(gain, 1, 3, 4), two_mode_squeeze(gain, 2, 4, 4))
    return CodeSpec(
        encoder=enc, data_modes=2, ancilla_kind="gkp", ancilla_sigma_gkp=sigma_gkp
    )


def gkp_squeezed_repetition(n_modes: int, lam: float, sigma_gkp: float = 0.0) -> CodeSpec:
    """N-mode repetition code interleaved with squeezing, lambda > 1.

    Built recursively: the two-mode base is Sq_1(1/lam) Sq_2(lam) SUM_12,
    and each extra mode wraps the previous circuit (shifted onto modes
    2..N) with the gate sequence

        Sq_1(1/lam^(N-2)), SUM_12, Sq_1(1/lam), Sq_2(lam^(N-1))

    applied in that order before it.  The resulting reshaped noise forms
    measurement chains that suppress both quadratures by lam^(N-1).
    Raises ValueError for a lam whose circuit or decoder would overflow.
    """
    counted("n_modes", n_modes, 2)
    checked("lam", lam, "> 1")
    # A float power raises OverflowError, a numpy one or a matmul
    # FloatingPointError.  At channel noise sigma <= 1 decoders.read_rows'
    # Gram-Schmidt forms no value above the largest squared row norm of S^-1
    # plus 2 sigma_gkp^2, up to rounding: a quarter of the range leaves room
    try:
        with np.errstate(over="raise", invalid="raise"):
            enc = compose(
                single_mode_squeeze(1.0 / lam, 1, 2),
                single_mode_squeeze(lam, 2, 2),
                sum_gate(1, 2, 2),
            )
            for n in range(3, n_modes + 1):
                shifted = direct_sum(identity(1), enc)
                enc = compose(
                    shifted,
                    single_mode_squeeze(lam ** (n - 1), 2, n),
                    single_mode_squeeze(1.0 / lam, 1, n),
                    sum_gate(1, 2, n),
                    single_mode_squeeze(1.0 / lam ** (n - 2), 1, n),
                )
            top = np.square(inverse(enc).matrix).sum(axis=1).max()
    except (OverflowError, FloatingPointError):
        top = np.inf
    if not top <= np.finfo(float).max / 4:
        raise ValueError(f"lam must keep the {n_modes}-mode circuit and its decoder finite, got {lam}")
    return CodeSpec(
        encoder=enc, data_modes=1, ancilla_kind="gkp", ancilla_sigma_gkp=sigma_gkp
    )


def logical_gate(
    code: CodeSpec,
    gate: SymplecticTransform,
    aux: SymplecticTransform | None = None,
) -> SymplecticTransform:
    """Physical circuit realizing `gate` on the encoded data modes.

    Conjugates gate (+) aux by the encoder: U_enc (gate (+) aux)
    U_enc^{-1}.  `aux` acts on the ancilla modes and defaults to the
    identity.
    """
    n_anc = code.n_modes - code.data_modes
    if gate.n_modes != code.data_modes:
        raise ValueError(
            f"gate acts on {gate.n_modes} modes but the code has {code.data_modes} data modes"
        )
    if aux is None:
        aux = identity(n_anc)
    elif aux.n_modes != n_anc:
        raise ValueError(
            f"aux acts on {aux.n_modes} modes but the code has {n_anc} ancillas"
        )
    return compose(code.encoder, direct_sum(gate, aux), inverse(code.encoder))
