"""Regularizing transformations.

Two ingredients:

* a power map that turns a Hoelder-rough profile into one with bounded
  second differences (composing k -> coef * k**(2/gamma + 1) with a
  gamma-Hoelder function gives second-difference quotients that stay bounded
  as the probing scale shrinks);

* doubly-integrated tables Phi(k, d) and Psi(k, d) built from a degeneracy
  weight phi(c, z):

      Phi(k, d) = int_0^k int_0^d G(s, z) dz ds,
      G(s, z)   = int_0^s int_0^z (s1 / 2) * phi(s1 / 2, z1)**2 dz1 ds1,
      Psi(k, d) = int_0^k Phi(s, d) * beta'(s) ds,

  all cumulative trapezoid sums on a refined grid, subsampled to the
  requested table.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import BetaFamily


# ---------------------------------------------------------------------------
# power map


@dataclass(frozen=True)
class PowerTransform:
    """k -> coef * k**power on the half line."""

    coef: float
    power: float

    def __call__(self, k):
        return self.coef * np.maximum(np.asarray(k, dtype=np.float64), 0.0) ** self.power


def holder_power_transform(gamma: float) -> PowerTransform:
    """Power map adapted to gamma-Hoelder roughness: exponent 2/gamma + 1,
    coefficient 1 / (gamma*(1-gamma)*(2/gamma)*(2/gamma + 1)).

    For gamma = 1/2 this is k -> 0.2 * k**5.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    q = 2.0 / gamma
    coef = 1.0 / (gamma * (1.0 - gamma) * q * (q + 1.0))
    return PowerTransform(coef=coef, power=q + 1.0)


def second_difference_quotient(fn: Callable, x0: float, s: float) -> float:
    """(f(x0+s) - 2 f(x0) + f(x0-s)) / s**2, the probe for distributional
    second-derivative growth."""
    return float((fn(x0 + s) - 2.0 * fn(x0) + fn(x0 - s)) / (s * s))


# ---------------------------------------------------------------------------
# degeneracy weight


def degeneracy_weight(beta_family: BetaFamily, cap: float | None = None):
    """phi(c, z) = 1/beta'(c), optionally capped by a constant; the
    degenerate origin contributes zero weight."""

    def phi(c, z):
        w = beta_family.recip_beta_prime(np.asarray(c, dtype=np.float64))
        if cap is not None:
            w = np.minimum(w, cap)
        return np.broadcast_arrays(w, np.asarray(z, dtype=np.float64))[0]

    return phi


def constant_weight(value: float = 1.0):
    def phi(c, z):
        c, z = np.broadcast_arrays(np.asarray(c, dtype=np.float64), np.asarray(z, dtype=np.float64))
        return np.full(c.shape, value)

    return phi


# ---------------------------------------------------------------------------
# tabulated double integrals


@dataclass(frozen=True)
class TabulatedTransform:
    """Bilinearly interpolated table of a monotone surface on
    [0, k_max] x [0, d_max]."""

    k_grid: np.ndarray
    d_grid: np.ndarray
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.table.shape != (len(self.k_grid), len(self.d_grid)):
            raise ValueError("table shape does not match the axes")

    def _locate(self, grid: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.clip(x, grid[0], grid[-1])
        idx = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(grid) - 2)
        frac = (x - grid[idx]) / (grid[idx + 1] - grid[idx])
        return idx, frac

    def eval(self, k, d) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        ki, kf = self._locate(self.k_grid, k)
        di, df = self._locate(self.d_grid, d)
        t = self.table
        return (
            t[ki, di] * (1 - kf) * (1 - df)
            + t[ki + 1, di] * kf * (1 - df)
            + t[ki, di + 1] * (1 - kf) * df
            + t[ki + 1, di + 1] * kf * df
        )

    def column(self, d: float) -> np.ndarray:
        """Table values along k at fixed d (linear in d)."""
        di, df = self._locate(self.d_grid, np.asarray(float(d)))
        return self.table[:, di] * (1 - df) + self.table[:, di + 1] * df

    def mixed_partial(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Central-difference d2/dkdd on the interior table nodes."""
        dk = self.k_grid[1] - self.k_grid[0]
        dd = self.d_grid[1] - self.d_grid[0]
        t = self.table
        mixed = (t[2:, 2:] - t[2:, :-2] - t[:-2, 2:] + t[:-2, :-2]) / (4.0 * dk * dd)
        return self.k_grid[1:-1], self.d_grid[1:-1], mixed


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """Cumulative trapezoid integral of ``y`` over the 1-D abscissae ``x``
    along ``axis``, starting from 0; the same operations in the same order as
    ``scipy.integrate.cumulative_trapezoid(y, x, axis=axis, initial=0)``."""
    y = np.asarray(y, dtype=np.float64)
    axis = axis % y.ndim
    shape = [1] * y.ndim
    shape[axis] = -1
    d = np.diff(x).reshape(shape)
    upper = (slice(None),) * axis + (slice(1, None),)
    lower = (slice(None),) * axis + (slice(None, -1),)
    res = np.cumsum(d * (y[upper] + y[lower]) / 2.0, axis=axis)
    start = np.zeros(res.shape[:axis] + (1,) + res.shape[axis + 1 :])
    return np.concatenate((start, res), axis=axis)


def _fine_axis(lo: float, hi: float, n: int, refine: int) -> np.ndarray:
    return np.linspace(lo, hi, (n - 1) * refine + 1)


def build_transform_pair(
    phi: Callable,
    beta_family: BetaFamily,
    k_max: float,
    d_max: float,
    n_k: int = 200,
    n_d: int = 200,
    quad_refine: int = 4,
) -> tuple[TabulatedTransform, TabulatedTransform]:
    """Tabulate Phi and Psi by nested cumulative trapezoid sums on a grid
    ``quad_refine`` times finer than the returned tables."""
    if n_k < 2 or n_d < 2 or quad_refine < 1:
        raise ValueError("need at least 2 table points per axis and refine >= 1")
    ks = _fine_axis(0.0, k_max, n_k, quad_refine)
    ds = _fine_axis(0.0, d_max, n_d, quad_refine)

    s1 = ks[:, None]
    z1 = ds[None, :]
    inner = (s1 / 2.0) * phi(s1 / 2.0, z1) ** 2
    g = cumulative_trapezoid(inner, ks, axis=0)
    g = cumulative_trapezoid(g, ds, axis=1)
    big_phi_fine = cumulative_trapezoid(g, ks, axis=0)
    big_phi_fine = cumulative_trapezoid(big_phi_fine, ds, axis=1)

    bp = beta_family.beta_prime(ks)
    # Phi vanishes cubically at k = 0, beating any integrable beta' blow-up
    weight = np.where(ks > 0.0, bp, 0.0)
    psi_fine = cumulative_trapezoid(big_phi_fine * weight[:, None], ks, axis=0)

    sub = (slice(None, None, quad_refine), slice(None, None, quad_refine))
    k_tab = ks[:: quad_refine]
    d_tab = ds[:: quad_refine]
    return (
        TabulatedTransform(k_tab, d_tab, big_phi_fine[sub].copy()),
        TabulatedTransform(k_tab, d_tab, psi_fine[sub].copy()),
    )


def invert_psi(psi: TabulatedTransform, values, d: float) -> np.ndarray:
    """Solve Psi(k, d) = value for k at fixed d by exact piecewise-linear
    inversion of the tabulated column (clipped to the table range).

    The column must be nondecreasing; ties (flat initial segment) resolve to
    the smallest k.
    """
    col = psi.column(d)
    if np.any(np.diff(col) < -1e-15 * max(abs(col[-1]), 1.0)):
        raise ValueError("column is not monotone; inversion undefined")
    vals = np.clip(np.asarray(values, dtype=np.float64), col[0], col[-1])
    idx = np.clip(np.searchsorted(col, vals, side="left") - 1, 0, len(col) - 2)
    run = col[idx + 1] - col[idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(run > 0.0, (vals - col[idx]) / run, 0.0)
    return psi.k_grid[idx] + frac * (psi.k_grid[idx + 1] - psi.k_grid[idx])

