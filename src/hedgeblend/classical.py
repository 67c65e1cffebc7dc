"""Classical hedging baselines: Black-Scholes delta and the no-trade band.

All closed forms assume zero rates. Functions broadcast over numpy arrays,
so whole (paths x steps) schedules evaluate in one call per time step.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .accounting import HedgeSchedule
from .errors import ParameterError, require_real
from .market import MarketPaths


def _norm_pdf(x):
    """Standard normal density, as ``scipy.stats.norm.pdf`` computes it; the
    cdf is ``scipy.special.ndtr``. ``scipy.stats`` itself is not imported:
    it was 0.8 s of the package's 1.3 s import."""
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _d1(spot, strike, vol, tau):
    return (np.log(spot / strike) + 0.5 * vol**2 * tau) / (vol * np.sqrt(tau))


def bs_delta(spot, strike, vol, tau):
    """Call delta N(d1); at expiry (or zero vol) the exercise indicator.

    d1 = (log(S/K) + vol^2 * tau / 2) / (vol * sqrt(tau)); the S == K tie at
    the boundary returns 0.5.
    """
    spot = np.asarray(spot, dtype=float)
    vol = np.asarray(vol, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ParameterError("tau must be non-negative")
    indicator = np.where(spot > strike, 1.0, np.where(spot == strike, 0.5, 0.0))
    live = (tau > 0) & (vol > 0)
    if not live.any():
        return indicator if indicator.ndim else float(indicator)
    safe_vol = np.where(live, vol, 1.0)
    safe_tau = np.where(live, tau, 1.0)
    with np.errstate(divide="ignore"):
        value = ndtr(_d1(spot, strike, safe_vol, safe_tau))
    out = np.where(live, value, indicator)
    return out if out.ndim else float(out)


def bs_price(spot, strike, vol, tau):
    """Zero-rate call price; intrinsic value at expiry."""
    spot = np.asarray(spot, dtype=float)
    tau = np.asarray(tau, dtype=float)
    intrinsic = np.maximum(spot - strike, 0.0)
    live = (tau > 0) & (np.asarray(vol, dtype=float) > 0)
    if not live.any():
        return intrinsic if intrinsic.ndim else float(intrinsic)
    safe_tau = np.where(live, tau, 1.0)
    d1 = _d1(spot, strike, vol, safe_tau)
    d2 = d1 - vol * np.sqrt(safe_tau)
    value = spot * ndtr(d1) - strike * ndtr(d2)
    out = np.where(live, value, intrinsic)
    return out if out.ndim else float(out)


def bs_gamma(spot, strike, vol, tau):
    """Call gamma phi(d1) / (S * vol * sqrt(tau)); undefined at expiry."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ParameterError("gamma is undefined at expiry (tau must be > 0)")
    spot = np.asarray(spot, dtype=float)
    vol = np.asarray(vol, dtype=float)
    live = vol > 0
    safe_vol = np.where(live, vol, 1.0)
    out = np.where(
        live,
        _norm_pdf(_d1(spot, strike, safe_vol, tau)) / (spot * safe_vol * np.sqrt(tau)),
        0.0,
    )
    return out if out.ndim else float(out)


def _vol_surface(paths: MarketPaths, vol: float | None) -> np.ndarray:
    """Volatility at each (path, decision step): ``vol`` everywhere, or with
    None the paths' instantaneous vol sqrt(v_t); ParameterError names a
    ``vol`` that is not finite and positive."""
    n = paths.n_steps
    if vol is None:
        return np.sqrt(paths.variance[:, :n])
    require_real("vol", vol, above=0)
    return np.full((paths.n_paths, n), vol)


def bs_delta_strategy(paths: MarketPaths, strike: float, vol: float | None) -> HedgeSchedule:
    """Black-Scholes delta at every (path, step) with tau_t = T - t*dt, at a
    fixed ``vol`` ("bs_delta_fixed") or, with None, the paths' instantaneous
    vol ("bs_delta_true")."""
    n = paths.n_steps
    taus = paths.grid.taus()[None, :]
    delta = bs_delta(paths.spot[:, :n], strike, _vol_surface(paths, vol), taus)
    return HedgeSchedule(delta, "bs_delta_true" if vol is None else "bs_delta_fixed")


def ww_band_halfwidth(spot, strike, vol, tau, cost_rate, risk_aversion=1.0):
    """Half-width (3 * c * gamma^2 * S / (2a))**(1/3) of the no-trade band."""
    require_real("risk_aversion", risk_aversion, above=0)
    gamma = bs_gamma(spot, strike, vol, tau)
    spot = np.asarray(spot, dtype=float)
    out = (3.0 * cost_rate * gamma**2 * spot / (2.0 * risk_aversion)) ** (1.0 / 3.0)
    return out if out.ndim else float(out)


def ww_strategy(
    paths: MarketPaths,
    strike: float,
    vol: float | None,
    cost_rate: float,
    risk_aversion: float = 1.0,
) -> HedgeSchedule:
    """No-trade band strategy: hold inside the band, jump to the nearest edge.

    The band is centred on the Black-Scholes delta with the asymptotic
    half-width, both at ``vol`` and tau_t = T - t*dt as in
    :func:`bs_delta_strategy`; the half-width takes tau at least dt, which
    tau_t falls below only by rounding, at the last decision.
    """
    n = paths.n_steps
    taus = paths.grid.taus()[None, :]
    spot, vol = paths.spot[:, :n], _vol_surface(paths, vol)
    center = bs_delta(spot, strike, vol, taus)
    width = ww_band_halfwidth(
        spot, strike, vol, np.maximum(taus, paths.grid.dt), cost_rate, risk_aversion
    )
    delta = np.empty_like(center)
    position = np.zeros(paths.n_paths)
    for t in range(n):
        position = np.clip(position, center[:, t] - width[:, t], center[:, t] + width[:, t])
        delta[:, t] = position
    return HedgeSchedule(delta, "whalley_wilmott")
