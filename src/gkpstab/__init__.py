"""Gaussian simulation of GKP-stabilizer oscillator codes.

Encoding circuits are symplectic transforms, decoding is modular
measurement plus linear estimation, and the resulting logical noise is
available both in closed form and from seeded Monte Carlo.  Every name
is imported from its module, e.g. `from gkpstab.tuning import optimize`.
"""

__version__ = "0.1.0"
