"""Compound-Poisson form of the Tweedie family with variance function 2*mu^(3/2).

A draw is Z = X_1 + ... + X_N with N ~ Poisson(lam) and X_i i.i.d. exponential
with mean nu, where lam = nu = sqrt(mu).  This gives E[Z] = mu,
Var[Z] = 2*mu^(3/2) and a point mass exp(-sqrt(mu)) at zero.  On z > 0 the
Poisson mixture of gamma densities sums to a modified Bessel function:

    p_mu(z) = exp(-sqrt(mu) - z/sqrt(mu)) * I_1(2 sqrt(z)) / sqrt(z).

Densities are evaluated in deviance form, log p_mu(z) = l*(z) - D(z || mu),
with the saturated log-likelihood

    l*(z) = log p_z(z) = log(I_1(2 sqrt(z)) exp(-2 sqrt(z))) - log(z) / 2,

l*(0) = 0 (the member with mean 0 is the unit point mass at 0), and the KL
divergence D(z || mu) = (sqrt(mu) - sqrt(z))^2 / sqrt(mu).  The exponentially
scaled Bessel function I_1(x) exp(-x), scipy's one-argument ``i1e``, is
positive and finite for every finite x > 0, so l* is finite for any finite
z > 0; l*(inf) = -inf.

A sum of k members with mean mu has N ~ Poisson(k sqrt(mu)) jumps of the same
size law, so on z > 0 its density is
exp(-k sqrt(mu) - z/sqrt(mu)) * sqrt(k/z) * I_1(2 sqrt(k z)), plus an atom
exp(-k sqrt(mu)) at 0: in deviance form l*_k(z) - k D(z/k || mu) with

    l*_k(z) = log(I_1(2 sqrt(k z)) exp(-2 sqrt(k z))) + (log k - log z) / 2
            = l*(k z) + log k.

Reference: Jorgensen (1997), The Theory of Dispersion Models, ch. 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class TweedieDensityValue:
    atom_mass_at_zero: float
    continuous_log_density: float


def _check_mean(mu: float) -> None:
    if not (mu > 0.0) or math.isinf(mu):
        raise DomainError(f"mean must be positive and finite, got {mu!r}")


def _ive1(x: float) -> float:
    """I_1(x) exp(-x), 0 at x = inf.

    The first call imports scipy.special, which would otherwise be about half
    of ``import snmlkit``, and rebinds this name to the ufunc
    ``scipy.special.i1e``, so later calls go straight to it.
    """
    global _ive1
    import scipy.special

    _ive1 = scipy.special.i1e
    return _ive1(x)


def saturated_log_likelihood(z: float, k: int = 1) -> float:
    """l*_k(z) for a sum z >= 0 of k observations; k = 1 gives l*(z) = log p_z(z)."""
    if z == 0.0:
        return 0.0
    # k z is never formed: it overflows near the float maximum, where l*_k(z)
    # is still finite
    x = 2.0 * math.sqrt(k) * math.sqrt(z)
    try:
        log_ive = math.log(_ive1(x))
    except ValueError:  # i1e(inf) = 0
        return -math.inf
    return log_ive + 0.5 * (math.log(k) - math.log(z))


def divergence(mu0: float, mu1: float) -> float:
    """KL divergence D(mu0 || mu1) for means in [0, inf], unchecked."""
    if mu1 == 0.0:
        return 0.0 if mu0 == 0.0 else math.inf
    if math.isinf(mu1):
        return math.inf
    d = math.sqrt(mu1) - math.sqrt(mu0)
    return d * d / math.sqrt(mu1)


def log_density(mu: float, z: float) -> TweedieDensityValue:
    """Evaluate the mixed density at z for the member with mean mu > 0."""
    _check_mean(mu)
    if math.isnan(z) or z < 0.0:
        raise DomainError(f"observation must be >= 0, got {z!r}")
    atom = math.exp(-math.sqrt(mu))
    if z == 0.0:
        return TweedieDensityValue(atom, -math.inf)
    return TweedieDensityValue(atom, saturated_log_likelihood(z) - divergence(z, mu))


def draw(mu: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw size values: N ~ Poisson(sqrt(mu)), then a Gamma(N, sqrt(mu)) total."""
    root = math.sqrt(mu)
    arrivals = rng.poisson(root, size=size)
    out = np.zeros(size, dtype=float)
    positive = arrivals > 0
    if positive.any():
        out[positive] = rng.gamma(shape=arrivals[positive], scale=root)
    return out


def sample(mu: float, count: int, seed: int) -> np.ndarray:
    """Draw count values with ``draw``; deterministic for a fixed seed."""
    _check_mean(mu)
    if count < 0:
        raise ValueError("count must be >= 0")
    return draw(mu, count, np.random.default_rng(seed))


def moments(mu: float) -> tuple[float, float]:
    """Return (mean, variance) = (mu, 2*mu^(3/2))."""
    _check_mean(mu)
    return mu, 2.0 * mu ** 1.5
