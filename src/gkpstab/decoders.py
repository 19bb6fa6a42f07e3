"""Recovery maps estimating the logical noise from reshaped syndromes.

Every code is decoded the same way: ancilla quadratures of the reshaped
noise z = S^{-1} xi (shape (..., 2N)) are read one after another, each
less a feed-forward of earlier reads and reduced modulo sqrt(2*pi) by
modular_measure, and a linear correction over the reads is subtracted
from the data mode.  A `Decoder` is only that data, and
`Decoder.for_code` derives it from the code's encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codes
from ._guard import checked, counted, flag, frozen, seeded
from .modular import modular_measure
from .symplectic import inverse

# read_rows, shared with analytic, and the older *_decoder call forms are not exported
__all__ = ["DecodeOutcome", "Decoder"]


@dataclass(frozen=True)
class DecodeOutcome:
    """Residual logical noise (position, momentum) of the data mode."""

    xi_q: np.ndarray
    xi_p: np.ndarray


@dataclass(frozen=True, eq=False)
class Decoder:
    """Modular reads followed by a linear correction of the data mode.

    `weights` is `read_rows`' f: row k < r = len(columns) holds read k's
    feed-forward, strictly lower-triangular, and the last two rows the
    corrections c_q and c_p.  Calling it on z reads m_k = z[..., columns[k]]
    - sum_j weights[k, j] m_j in column order, which fixes the order of the
    random draws of noisy ancillas (sigma_gkp > 0), and returns
    z_q^(1) - c_q.m and z_p^(1) - c_p.m.  `exact` reads skip the reduction
    modulo sqrt(2*pi): position-eigenstate ancillas reveal z itself.
    """

    n_modes: int
    columns: tuple
    weights: np.ndarray
    sigma_gkp: float = 0.0
    exact: bool = False

    def __post_init__(self):
        counted("n_modes", self.n_modes, 1)
        for column in self.columns:
            if counted("columns", column, 0) >= 2 * self.n_modes:
                raise ValueError(f"columns must be below {2 * self.n_modes}, got {column}")
        weights = frozen("weights", self.weights, "finite")
        r = len(self.columns)
        if weights.shape != (r + 2, r):
            raise ValueError(f"weights must have shape {(r + 2, r)}, got {weights.shape}")
        if np.triu(weights[:r]).any():
            raise ValueError("weights may feed a read forward only from an earlier read")
        object.__setattr__(self, "weights", weights)
        checked("sigma_gkp", self.sigma_gkp, "nonnegative")
        flag("exact", self.exact)

    @classmethod
    def for_code(cls, code: codes.CodeSpec, sigma: float) -> Decoder:
        """Successive-cancellation reads and MMSE weights derived from the code.

        Reads the ancilla positions in mode order, then, for GKP ancillas,
        the momenta from the last mode back, each less a feed-forward of
        earlier reads (exact reads fold it into the weights); c_q and c_p are
        the linear MMSE estimate of data mode 1 without wraps (`read_rows`).
        """
        columns, f, _, sigma_gkp, exact, _ = read_rows(code, sigma)
        return cls(code.n_modes, tuple(columns), f, sigma_gkp, exact)

    def __call__(self, z, rng=None) -> DecodeOutcome:
        x = np.asarray(z, dtype=float)
        if x.shape[-1] != 2 * self.n_modes:
            raise ValueError(f"syndrome width {x.shape[-1]} does not match {self.n_modes} modes")
        seeded("rng", rng)
        gen = np.random.default_rng(rng) if self.sigma_gkp > 0 else None
        f = self.weights.tolist()
        # one product buffer for every feed-forward term of the call
        term = np.empty(x.shape[:-1])
        # the earlier reads each read feeds forward, and the read that last
        # feeds each value forward; a value is kept until then
        feeds = [[j for j in range(k) if f[k][j]] for k in range(len(self.columns))]
        last_use = {j: k for k, feed in enumerate(feeds) for j in feed}
        values = {}
        # the corrections sum c[k] * m_k left to right over the nonzero
        # weights, each term added as soon as its read is made
        sums = [None, None]
        for k, column in enumerate(self.columns):
            v = x[..., column]
            if feeds[k]:
                v = v.copy()
                for j in feeds[k]:
                    v -= np.multiply(values[j], f[k][j], out=term)
                    if last_use[j] == k:
                        del values[j]
            if not self.exact:
                v = modular_measure(v, self.sigma_gkp, gen)
            if k in last_use:
                values[k] = v
            for i, c in enumerate((f[-2][k], f[-1][k])):
                if c:
                    if sums[i] is None:
                        sums[i] = c * v
                    else:
                        sums[i] += c * v
        q, p = (0.0 if s is None else s for s in sums)
        return DecodeOutcome(xi_q=x[..., 0] - q, xi_p=x[..., 1] - p)


def read_rows(code: codes.CodeSpec, sigma: float):
    """(columns, f, rows, sigma_gkp, exact, unit): read k is row columns[k] of
    S^{-1} plus its own noise of variance 2 sigma_gkp^2.  Unnormalised
    modified Gram-Schmidt over the reads, then data q1 and p1, writes row_k
    = w_k + sum_{j<k} f_kj w_j with orthogonal w_j; `rows` holds the w_j,
    then the data residuals, and f[-2:] the MMSE weights; unit * |row| is
    in channel units.  Zero coefficients come out exact."""
    checked("sigma", sigma, "nonnegative")
    n, exact = code.n_modes, code.ancilla_kind == "position"
    columns = [2 * k for k in range(code.data_modes, n)]
    if not exact:
        columns += [2 * k + 1 for k in range(n - 1, code.data_modes - 1, -1)]
    sigma_gkp = 0.0 if exact else code.ancilla_sigma_gkp
    # rows scaled by sigma give the same coefficients and stay finite at
    # sigma = 0, where noisy reads carry no channel noise and weigh nothing
    scale, unit = (sigma, 1.0) if sigma_gkp > 0 else (1.0, sigma)
    r = len(columns)
    rows = np.zeros((r + 2, 2 * n + r))
    rows[:, : 2 * n] = scale * inverse(code.encoder).matrix[columns + [0, 1]]
    rows[range(r), range(2 * n, 2 * n + r)] = math.sqrt(2.0) * sigma_gkp
    f = np.zeros((r + 2, r))
    for j in range(r):
        w = rows[j]
        f[j + 1 :, j] = rows[j + 1 :] @ w / (w @ w)
        rows[j + 1 :] -= np.outer(f[j + 1 :, j], w)
    if exact:
        # exact reads are linear: with z_reads = (I + F) m, c.m = ((I + F)^-T c).z
        f[r:] = np.linalg.solve(np.eye(r) + np.tril(f[:r], -1).T, f[r:].T).T
        f[:r] = 0.0
    return columns, f, rows, sigma_gkp, exact, unit


# Apart from gkp_tms's, the ancillas of these codes are noiseless, so the
# channel sigma passed to for_code does not enter their weights.
def gaussian_repetition_decoder(n_modes: int) -> Decoder:
    """`Decoder.for_code` of `codes.gaussian_repetition(n_modes)`."""
    return Decoder.for_code(codes.gaussian_repetition(n_modes), 1.0)


def gkp_repetition_decoder() -> Decoder:
    """`Decoder.for_code` of `codes.gkp_repetition()`."""
    return Decoder.for_code(codes.gkp_repetition(), 1.0)


def gkp_tms_decoder(gain: float, sigma: float, sigma_gkp: float = 0.0) -> Decoder:
    """`Decoder.for_code` of `codes.gkp_tms(gain, sigma_gkp)` at channel noise sigma."""
    return Decoder.for_code(codes.gkp_tms(gain, sigma_gkp), sigma)


def gkp_squeezed_repetition_decoder(n_modes: int, lam: float) -> Decoder:
    """`Decoder.for_code` of `codes.gkp_squeezed_repetition(n_modes, lam)`."""
    return Decoder.for_code(codes.gkp_squeezed_repetition(n_modes, lam), 1.0)
