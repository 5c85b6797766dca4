"""Pricing kernel, benchmark numeraire, and asset specs: coefficients only.

The market carries a pricing kernel pi with proportional dynamics

    dpi / pi_left = -( r dt + lambda dW + sum_k Lambda_k (dN_k - w_k dt) ),

with short rate r, Brownian market price of risk lambda, and jump market
prices of risk Lambda_k < 1.  Its reciprocal xi = 1/pi is the benchmark
numeraire: prices divided by xi ("natural" prices) are martingales.  A
non-dividend asset with domestic volatilities (sigma, Sigma_k) has natural
volatilities

    sigma_bar = sigma - lambda,
    Sigma_bar_k = Sigma_k (1 - Lambda_k) - Lambda_k,

and its natural price is the driftless stochastic exponential of
(sigma_bar, Sigma_bar).  These formulas define the units of the model: every
:class:`AssetSpec` is given in natural units, (sigma_bar, Sigma_bar), and
the package ships no function that converts a domestic spec.  All specs here
are time-independent constants; the convention pi_0 = 1 makes domestic and
natural prices coincide at t = 0.  This module turns specs into
:class:`SymmetricCoefficients`; the paths of those coefficients come from
the block kernels of ``levy_core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy_core import _check_atoms, _check_jump_vol, _check_real, _real_fields, LevyMeasure, SymmetricCoefficients

__all__ = [
    "PricingKernelSpec",
    "AssetSpec",
    "GeometricBernoulliSpec",
    "kernel_coefficients",
    "benchmark_coefficients",
    "natural_coefficients",
]


@dataclass(frozen=True)
class PricingKernelSpec:
    """Constant kernel parameters (r, lambda, Lambda_k per atom)."""

    short_rate: float
    brownian_mpr: float
    jump_mpr: tuple[float, ...] = ()

    def __post_init__(self):
        _real_fields(self, "short_rate", "brownian_mpr")
        object.__setattr__(self, "jump_mpr", tuple(_check_real(v, "jump_mpr") for v in self.jump_mpr))
        if any(v >= 1.0 for v in self.jump_mpr):
            raise ValueError("jump_mpr (jump market prices of risk) must be < 1")

    @property
    def jump_mpr_array(self) -> np.ndarray:
        return np.asarray(self.jump_mpr, dtype=float)


@dataclass(frozen=True)
class AssetSpec:
    """Constant volatilities (sigma, Sigma_k per atom) and the initial price."""

    initial_price: float
    brownian_vol: float
    jump_vol: tuple[float, ...] = ()

    def __post_init__(self):
        _real_fields(self, "initial_price", "brownian_vol")
        if self.initial_price <= 0.0:
            raise ValueError(f"initial_price must be positive, got {self.initial_price!r}")
        object.__setattr__(self, "jump_vol", _check_jump_vol(self.jump_vol))


@dataclass(frozen=True)
class GeometricBernoulliSpec:
    """Geometric asset whose jump volatility is exp(jump_exponent * x) - 1."""

    initial_price: float
    brownian_vol: float
    jump_exponent: float

    def __post_init__(self):
        _real_fields(self, "initial_price", "brownian_vol", "jump_exponent")
        if self.initial_price <= 0.0:
            raise ValueError(f"initial_price must be positive, got {self.initial_price!r}")

    def to_asset_spec(self, measure: LevyMeasure) -> AssetSpec:
        with np.errstate(over="ignore"):  # an overflow to inf is rejected by AssetSpec
            jump_vol = tuple(np.expm1(self.jump_exponent * measure.locations))
        return AssetSpec(self.initial_price, self.brownian_vol, jump_vol)


def kernel_coefficients(kernel: PricingKernelSpec, measure: LevyMeasure) -> SymmetricCoefficients:
    """Proportional coefficients of the pricing kernel pi: (-r, -lambda, -Lambda_k)."""
    return SymmetricCoefficients(-kernel.short_rate, -kernel.brownian_mpr, tuple(-kernel.jump_mpr_array), measure)


def benchmark_coefficients(kernel: PricingKernelSpec, measure: LevyMeasure) -> SymmetricCoefficients:
    """Proportional coefficients of the benchmark xi = 1/pi.

    drift = r + lambda^2 + sum_k Lambda_k^2 / (1 - Lambda_k) * w_k,
    brownian_vol = lambda, jump_vol_k = Lambda_k / (1 - Lambda_k).
    """
    _check_atoms(len(kernel.jump_mpr), measure, "kernel")
    lam = kernel.brownian_mpr
    big = kernel.jump_mpr_array
    jump_vol = big / (1.0 - big)
    drift = kernel.short_rate + lam * lam + float((big * jump_vol) @ measure.intensities)
    return SymmetricCoefficients(drift, lam, tuple(jump_vol), measure)


def natural_coefficients(asset: AssetSpec, measure: LevyMeasure) -> SymmetricCoefficients:
    """Driftless proportional coefficients of a natural (benchmark-unit) price."""
    return SymmetricCoefficients(0.0, asset.brownian_vol, asset.jump_vol, measure)

