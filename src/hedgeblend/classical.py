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
    """(d1, live, vol, tau): d1 = (log(S/K) + vol^2 * tau / 2) / (vol *
    sqrt(tau)), computed in place in a new array of the broadcast shape, and
    vol and tau replaced by 1.0 where they are not positive, off the ``live``
    entries (tau > 0 and vol > 0), so that d1 stays finite there."""
    spot = np.asarray(spot, dtype=float)
    vol = np.asarray(vol, dtype=float)
    tau = np.asarray(tau, dtype=float)
    live = (tau > 0) & (vol > 0)
    if not live.all():
        vol = np.where(vol > 0, vol, 1.0)
        tau = np.where(tau > 0, tau, 1.0)
    d1 = np.empty(np.broadcast_shapes(spot.shape, np.shape(strike), live.shape))
    with np.errstate(divide="ignore"):
        np.log(np.divide(spot, strike, out=d1), out=d1)
    d1 += 0.5 * vol**2 * tau
    d1 /= vol * np.sqrt(tau)
    return d1, live, vol, tau


def _scalar(out):
    return out if out.ndim else float(out)


def _delta(d1, live, spot, strike):
    """N(d1), written over d1, and the exercise indicator where not live."""
    ndtr(d1, out=d1)
    if not live.all():
        dead = ~np.broadcast_to(live, d1.shape)
        s, k = np.broadcast_to(spot, d1.shape)[dead], np.broadcast_to(strike, d1.shape)[dead]
        d1[dead] = np.where(s > k, 1.0, np.where(s == k, 0.5, 0.0))
    return d1


def _gamma(d1, live, spot, vol, tau):
    """phi(d1) / (S * vol * sqrt(tau)), and 0 where not live."""
    return np.where(live, _norm_pdf(d1) / (spot * vol * np.sqrt(tau)), 0.0)


def bs_delta(spot, strike, vol, tau):
    """Call delta N(d1), computed in place in d1 (:func:`_d1`); at expiry
    (or zero vol) the exercise indicator, 0.5 at the S == K tie."""
    if np.any(np.asarray(tau) < 0):
        raise ParameterError("tau must be non-negative")
    d1, live, _, _ = _d1(spot, strike, vol, tau)
    return _scalar(_delta(d1, live, spot, strike))


def bs_price(spot, strike, vol, tau):
    """Zero-rate call price; intrinsic value at expiry."""
    d1, live, vol, tau = _d1(spot, strike, vol, tau)
    spot = np.asarray(spot, dtype=float)
    value = spot * ndtr(d1) - strike * ndtr(d1 - vol * np.sqrt(tau))
    return _scalar(np.where(live, value, np.maximum(spot - strike, 0.0)))


def bs_gamma(spot, strike, vol, tau):
    """Call gamma phi(d1) / (S * vol * sqrt(tau)); 0 at zero vol; undefined at expiry."""
    if np.any(np.asarray(tau) <= 0):
        raise ParameterError("gamma is undefined at expiry (tau must be > 0)")
    d1, live, vol, tau = _d1(spot, strike, vol, tau)
    return _scalar(_gamma(d1, live, spot, vol, tau))


def _vol_surface(paths: MarketPaths, vol: float | None):
    """Volatility at the decision steps: with None the paths' instantaneous
    vol sqrt(v_t) at each (path, step), otherwise ``vol`` itself, which
    broadcasts; ParameterError names a ``vol`` that is not finite and
    positive."""
    if vol is None:
        return np.sqrt(paths.variance[:, : paths.n_steps])
    require_real("vol", vol, above=0)
    return vol


def bs_delta_strategy(paths: MarketPaths, strike: float, vol: float | None) -> HedgeSchedule:
    """Black-Scholes delta at every (path, step) with tau_t = T - t*dt, at a
    fixed ``vol`` ("bs_delta_fixed") or, with None, the paths' instantaneous
    vol ("bs_delta_true")."""
    n = paths.n_steps
    taus = paths.grid.taus()[None, :]
    delta = bs_delta(paths.spot[:, :n], strike, _vol_surface(paths, vol), taus)
    return HedgeSchedule(delta, "bs_delta_true" if vol is None else "bs_delta_fixed")


def _halfwidth(gamma, spot, cost_rate, risk_aversion):
    require_real("cost_rate", cost_rate, at_least=0)
    require_real("risk_aversion", risk_aversion, above=0)
    return (3.0 * cost_rate * gamma**2 * spot / (2.0 * risk_aversion)) ** (1.0 / 3.0)


def ww_band_halfwidth(spot, strike, vol, tau, cost_rate, risk_aversion=1.0):
    """Half-width (3 * c * gamma^2 * S / (2a))**(1/3) of the no-trade band."""
    gamma = bs_gamma(spot, strike, vol, tau)
    return _scalar(_halfwidth(gamma, np.asarray(spot, dtype=float), cost_rate, risk_aversion))


def ww_strategy(
    paths: MarketPaths,
    strike: float,
    vol: float | None,
    cost_rate: float,
    risk_aversion: float = 1.0,
) -> HedgeSchedule:
    """No-trade band strategy: hold inside the band, jump to the nearest edge.

    The band's centre, the Black-Scholes delta N(d1), and its asymptotic
    half-width come from one d1, at ``vol`` and tau_t = T - t*dt as in
    :func:`bs_delta_strategy`, but tau at least dt, which tau_t falls below
    only by rounding, at the last decision: not on the 126-, 16-, 8- and
    4-step grids over 0.5 years, where the centre is that strategy's bit for
    bit, but by 6.9e-18 on 4 steps over 0.1 years, where its last column can
    move by that rounding.
    """
    n = paths.n_steps
    spot, taus = paths.spot[:, :n], np.maximum(paths.grid.taus(), paths.grid.dt)
    d1, live, vol, tau = _d1(spot, strike, _vol_surface(paths, vol), taus[None, :])
    width = _halfwidth(_gamma(d1, live, spot, vol, tau), spot, cost_rate, risk_aversion)
    # Step-major copies, so that each step's clip runs on contiguous rows.
    width = np.ascontiguousarray(width.T)
    center = np.ascontiguousarray(_delta(d1, live, spot, strike).T)
    lower = center - width
    upper = np.add(center, width, out=center)
    delta = np.empty_like(center)
    position = np.zeros(paths.n_paths)
    for t in range(n):
        position = np.clip(position, lower[t], upper[t], out=delta[t])
    return HedgeSchedule(np.ascontiguousarray(delta.T), "whalley_wilmott")
