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
(sigma_bar, Sigma_bar).  All specs here are time-independent constants; the
convention pi_0 = 1 makes domestic and natural prices coincide at t = 0.
This module turns specs into :class:`SymmetricCoefficients`; the paths of
those coefficients come from the block kernels of ``levy_core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy_core import LevyMeasure, SymmetricCoefficients

__all__ = [
    "PricingKernelSpec",
    "AssetSpec",
    "GeometricBernoulliSpec",
    "kernel_coefficients",
    "benchmark_coefficients",
    "to_natural",
    "from_natural",
    "domestic_drift",
    "natural_coefficients",
]


@dataclass(frozen=True)
class PricingKernelSpec:
    """Constant kernel parameters (r, lambda, Lambda_k per atom)."""

    short_rate: float
    brownian_mpr: float
    jump_mpr: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "jump_mpr", tuple(float(v) for v in self.jump_mpr))
        if not (np.isfinite(self.short_rate) and np.isfinite(self.brownian_mpr)):
            raise ValueError("short_rate and brownian_mpr must be finite")
        if any(not np.isfinite(v) or v >= 1.0 for v in self.jump_mpr):
            raise ValueError("jump market prices of risk must be finite and < 1")

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
        object.__setattr__(self, "jump_vol", tuple(float(v) for v in self.jump_vol))
        if not (np.isfinite(self.initial_price) and self.initial_price > 0.0):
            raise ValueError("initial_price must be finite and positive")
        if not np.isfinite(self.brownian_vol):
            raise ValueError("brownian_vol must be finite")
        if any(not np.isfinite(v) or v <= -1.0 for v in self.jump_vol):
            raise ValueError("jump volatilities must be finite and > -1")

    @property
    def jump_vol_array(self) -> np.ndarray:
        return np.asarray(self.jump_vol, dtype=float)


@dataclass(frozen=True)
class GeometricBernoulliSpec:
    """Geometric asset whose jump volatility is exp(jump_exponent * x) - 1."""

    initial_price: float
    brownian_vol: float
    jump_exponent: float

    def __post_init__(self):
        if not (np.isfinite(self.initial_price) and self.initial_price > 0.0):
            raise ValueError("initial_price must be finite and positive")
        if not (np.isfinite(self.brownian_vol) and np.isfinite(self.jump_exponent)):
            raise ValueError("volatility parameters must be finite")

    def to_asset_spec(self, measure: LevyMeasure) -> AssetSpec:
        with np.errstate(over="ignore"):  # an overflow to inf is rejected by AssetSpec
            jump_vol = tuple(np.expm1(self.jump_exponent * measure.locations))
        return AssetSpec(self.initial_price, self.brownian_vol, jump_vol)


def _check_atoms(n_spec: int, measure: LevyMeasure, what: str) -> None:
    if n_spec != len(measure):
        raise ValueError(f"{what} has {n_spec} jump entries but the measure has {len(measure)} atoms")


def kernel_coefficients(kernel: PricingKernelSpec, measure: LevyMeasure) -> SymmetricCoefficients:
    """Proportional coefficients of the pricing kernel pi: (-r, -lambda, -Lambda_k)."""
    _check_atoms(len(kernel.jump_mpr), measure, "kernel")
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


def to_natural(asset: AssetSpec, kernel: PricingKernelSpec) -> AssetSpec:
    """Rewrite domestic volatilities in benchmark units (initial price unchanged, pi_0 = 1)."""
    if len(asset.jump_vol) != len(kernel.jump_mpr):
        raise ValueError("asset and kernel disagree on the number of jump atoms")
    big = kernel.jump_mpr_array
    bar = asset.jump_vol_array * (1.0 - big) - big
    return AssetSpec(asset.initial_price, asset.brownian_vol - kernel.brownian_mpr, tuple(bar))


def from_natural(asset: AssetSpec, kernel: PricingKernelSpec) -> AssetSpec:
    """Inverse of :func:`to_natural`: sigma = sigma_bar + lambda, Sigma = (Sigma_bar + Lambda)/(1 - Lambda)."""
    if len(asset.jump_vol) != len(kernel.jump_mpr):
        raise ValueError("asset and kernel disagree on the number of jump atoms")
    big = kernel.jump_mpr_array
    dom = (asset.jump_vol_array + big) / (1.0 - big)
    return AssetSpec(asset.initial_price, asset.brownian_vol + kernel.brownian_mpr, tuple(dom))


def domestic_drift(asset: AssetSpec, kernel: PricingKernelSpec, measure: LevyMeasure) -> float:
    """No-arbitrage domestic drift rate r + lambda sigma + sum_k Lambda_k Sigma_k w_k."""
    _check_atoms(len(asset.jump_vol), measure, "asset")
    _check_atoms(len(kernel.jump_mpr), measure, "kernel")
    jump_part = float((kernel.jump_mpr_array * asset.jump_vol_array) @ measure.intensities)
    return kernel.short_rate + kernel.brownian_mpr * asset.brownian_vol + jump_part


def natural_coefficients(asset: AssetSpec, measure: LevyMeasure) -> SymmetricCoefficients:
    """Driftless proportional coefficients of a natural (benchmark-unit) price."""
    _check_atoms(len(asset.jump_vol), measure, "asset")
    return SymmetricCoefficients(0.0, asset.brownian_vol, asset.jump_vol, measure)

