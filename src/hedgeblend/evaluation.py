"""Statistical evaluation: win rates, uncertainty drivers, bootstrap tests.

All analyses are pure functions of their inputs; CSV emitters format floats
with a fixed precision so identical inputs reproduce identical bytes.
Win is strict inequality throughout: ties count against the candidate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import rng
from .accounting import PnLReport, check_same_paths, decompose_pnl
from .errors import ParameterError, require_integer
from .market import MarketPaths
from .risk import RiskSpec, cvar, summary

N_QUINTILES = 5
# Fewest resamples a paired bootstrap accepts; RunConfig checks it up front.
MIN_BOOTSTRAP_RESAMPLES = 100
# Resamples a paired bootstrap draws at once: bounds its index matrix to
# BOOTSTRAP_BLOCK x n paths.
BOOTSTRAP_BLOCK = 512


@dataclass
class QuintileRow:
    label: str
    win_rate: float
    mean_advantage: float
    avg_uncertainty: float
    n_paths: int


def _per_path(*vectors) -> list[np.ndarray]:
    """The vectors as float arrays; ParameterError unless they are 1-D,
    non-empty and of one shape."""
    arrays = [np.asarray(v, dtype=float) for v in vectors]
    if len({a.shape for a in arrays}) > 1:
        raise ParameterError(f"per-path vectors differ in shape: {[a.shape for a in arrays]}")
    if arrays[0].ndim != 1 or arrays[0].size == 0:
        raise ParameterError(
            f"per-path vectors must be 1-D and non-empty, got shape {arrays[0].shape}")
    return arrays


def quintile_analysis(pnl_a, pnl_b, psi_bar) -> list[QuintileRow]:
    """Win rate of A over B within uncertainty quintiles, plus an overall row.

    Paths are sorted by psi_bar ascending (stable, so equal values keep path
    order) and split into five contiguous groups of near-equal size.
    """
    pnl_a, pnl_b, psi_bar = _per_path(pnl_a, pnl_b, psi_bar)
    if pnl_a.size < N_QUINTILES:
        raise ParameterError(f"need at least {N_QUINTILES} paths")

    order = np.argsort(psi_bar, kind="stable")
    wins = (pnl_a > pnl_b)[order]
    advantage = (pnl_a - pnl_b)[order]
    psi_sorted = psi_bar[order]

    rows = []
    for q, idx in enumerate(np.array_split(np.arange(pnl_a.size), N_QUINTILES)):
        rows.append(
            QuintileRow(
                label=f"Q{q + 1}",
                win_rate=float(wins[idx].mean()),
                mean_advantage=float(advantage[idx].mean()),
                avg_uncertainty=float(psi_sorted[idx].mean()),
                n_paths=idx.size,
            )
        )
    rows.append(
        QuintileRow(
            label="overall",
            win_rate=float(wins.mean()),
            mean_advantage=float(advantage.mean()),
            avg_uncertainty=float(psi_sorted.mean()),
            n_paths=pnl_a.size,
        )
    )
    return rows


def rolling_winrate(pnl_a, pnl_b, psi_bar, window: int) -> np.ndarray:
    """(mean uncertainty, win rate) per rolling window over sorted paths.

    Returns an array of shape (n - window + 1, 2).
    """
    pnl_a, pnl_b, psi_bar = _per_path(pnl_a, pnl_b, psi_bar)
    n = pnl_a.size
    require_integer("window", window, minimum=1)
    if window > n:
        raise ParameterError(f"window {window} exceeds {n} paths")
    order = np.argsort(psi_bar, kind="stable")
    wins = (pnl_a > pnl_b)[order].astype(float)
    psi_sorted = psi_bar[order]

    kernel_mean = lambda x: np.convolve(x, np.ones(window) / window, mode="valid")
    return np.column_stack([kernel_mean(psi_sorted), kernel_mean(wins)])


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    # A constant's float std may be ~1e-17 rather than 0, so test the range.
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ParameterError("correlation against a constant input")
    return float(np.corrcoef(x, y)[0, 1])


def uncertainty_correlations(psi_bar, paths: MarketPaths) -> tuple[float, float]:
    """Pearson correlations of path uncertainty with final moneyness and
    with the time-average instantaneous volatility."""
    psi_bar = np.asarray(psi_bar, dtype=float)
    if psi_bar.size != paths.n_paths:
        raise ParameterError("psi_bar length does not match path count")
    final_moneyness = paths.spot[:, -1]
    avg_vol = np.sqrt(paths.variance).mean(axis=1)
    return _pearson(psi_bar, final_moneyness), _pearson(psi_bar, avg_vol)


@dataclass
class HeatmapData:
    """Mean disagreement per (time bin, moneyness bin); empty bins are NaN."""

    grid: np.ndarray  # (time_bins, moneyness_bins), NaN where unpopulated
    counts: np.ndarray
    moneyness_edges: np.ndarray
    time_edges: np.ndarray  # step-index edges


def heatmap_data(
    psi: np.ndarray,
    paths: MarketPaths,
    moneyness_bins: int,
    time_bins: int,
    strike: float = 1.0,
) -> HeatmapData:
    """Bin per-step disagreement by (moneyness, time step)."""
    require_integer("moneyness_bins", moneyness_bins, minimum=2)
    require_integer("time_bins", time_bins, minimum=2)
    n = paths.n_steps
    if psi.shape != (paths.n_paths, n):
        raise ParameterError("psi shape does not match paths")
    moneyness = paths.spot[:, :n] / strike

    m_edges = np.linspace(moneyness.min(), moneyness.max(), moneyness_bins + 1)
    t_edges = np.linspace(0, n, time_bins + 1)
    m_idx = np.clip(np.digitize(moneyness, m_edges) - 1, 0, moneyness_bins - 1)
    t_idx = np.clip(
        np.digitize(np.broadcast_to(np.arange(n), moneyness.shape), t_edges) - 1,
        0,
        time_bins - 1,
    )

    flat = t_idx.ravel() * moneyness_bins + m_idx.ravel()
    counts = np.bincount(flat, minlength=time_bins * moneyness_bins)
    sums = np.bincount(flat, weights=psi.ravel(), minlength=time_bins * moneyness_bins)
    with np.errstate(invalid="ignore"):
        grid = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return HeatmapData(
        grid=grid.reshape(time_bins, moneyness_bins),
        counts=counts.reshape(time_bins, moneyness_bins),
        moneyness_edges=m_edges,
        time_edges=t_edges,
    )


@dataclass
class ComparisonRow:
    strategy: str
    mean_pnl: float
    std_pnl: float
    cvar: float


def strategy_comparison(reports: list[PnLReport], level: float = 0.05) -> list[ComparisonRow]:
    """Mean / std / CVaR table, one row per strategy, shared paths required."""
    check_same_paths(reports)
    rows = []
    for r in reports:
        mean, std = summary(r.pnl)
        rows.append(ComparisonRow(r.strategy_label, mean, std, cvar(r.pnl, level)))
    return rows


@dataclass
class BootstrapResult:
    """Paired-bootstrap metric difference, oriented so positive favours A.

    mean_diff and the CI are in raw P&L units (multiply by 1e4 for bps).
    """

    mean_diff: float
    ci_low: float
    ci_high: float
    win_fraction: float
    resamples: int

    @property
    def significant(self) -> bool:
        return self.ci_low > 0 or self.ci_high < 0


def paired_bootstrap(
    pnl_a,
    pnl_b,
    metric: RiskSpec,
    resamples: int = 5000,
    seed: int = 0,
) -> BootstrapResult:
    """Resample paths with replacement; evaluate both strategies on the same
    draws and record the oriented metric difference (A minus B for
    higher-is-better metrics, flipped otherwise). The draws are made
    ``BOOTSTRAP_BLOCK`` resamples at a time, which changes no result."""
    pnl_a, pnl_b = _per_path(pnl_a, pnl_b)
    require_integer("resamples", resamples, minimum=MIN_BOOTSTRAP_RESAMPLES)
    n = pnl_a.size
    gen = rng.generator(rng.derive_seed(seed, rng.TAG_BOOTSTRAP))

    diffs = np.empty(resamples)
    done = 0
    while done < resamples:
        m = min(BOOTSTRAP_BLOCK, resamples - done)
        idx = gen.integers(0, n, size=(m, n))
        d = metric.evaluate(pnl_a[idx]) - metric.evaluate(pnl_b[idx])
        diffs[done : done + m] = d if metric.higher_is_better else -d
        done += m

    lo, hi = np.percentile(diffs, [2.5, 97.5])
    return BootstrapResult(
        mean_diff=float(diffs.mean()),
        ci_low=float(lo),
        ci_high=float(hi),
        win_fraction=float((diffs > 0).mean()),
        resamples=resamples,
    )


# -- CSV / manifest emitters ----------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_rows_csv(path: str, header: list[str] | type, rows: list) -> None:
    """One CSV line per row; a dataclass row gives its fields in order, and a
    dataclass type as ``header`` names the columns after its fields."""
    if isinstance(header, type):
        header = [f.name for f in fields(header)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if is_dataclass(row):
                row = [getattr(row, f.name) for f in fields(row)]
            writer.writerow([_fmt(v) for v in row])


def write_quintiles_csv(path: str, rows: list[QuintileRow]) -> None:
    write_rows_csv(
        path,
        ["quintile", "win_rate", "mean_advantage", "avg_uncertainty", "n_paths"],
        rows,
    )


def write_winrate_curve_csv(path: str, curve: np.ndarray) -> None:
    write_rows_csv(
        path,
        ["window_mean_uncertainty", "win_rate"],
        [[float(u), float(w)] for u, w in curve],
    )


def write_correlations_csv(path: str, corr_moneyness: float, corr_vol: float) -> None:
    write_rows_csv(
        path,
        ["characteristic", "correlation_with_uncertainty"],
        [["final_moneyness", corr_moneyness], ["average_volatility", corr_vol]],
    )


@dataclass
class HeatmapRow:
    time_bin: int
    moneyness_bin: int
    time_center: float
    moneyness_center: float
    mean_disagreement: float
    count: int


def write_heatmap_csv(path: str, data: HeatmapData) -> None:
    """Populated bins only: absent bins are omitted rather than zero-filled."""
    t_mid = (data.time_edges[:-1] + data.time_edges[1:]) / 2
    m_mid = (data.moneyness_edges[:-1] + data.moneyness_edges[1:]) / 2
    rows = [
        HeatmapRow(int(ti), int(mi), float(t_mid[ti]), float(m_mid[mi]),
                   float(data.grid[ti, mi]), int(data.counts[ti, mi]))
        for ti, mi in zip(*np.nonzero(data.counts))
    ]
    write_rows_csv(path, HeatmapRow, rows)


def _cvar_column(level: float) -> str:
    """The CVaR column's name: ``cvar_5pct`` at level 0.05."""
    return f"cvar_{100 * level:g}pct"


def write_comparison_csv(path: str, rows: list[ComparisonRow], level: float = 0.05) -> None:
    write_rows_csv(path, ["strategy", "mean_pnl", "std_pnl", _cvar_column(level)], rows)


@dataclass
class BootstrapRow:
    comparison: str
    metric: str
    mean_diff: float
    mean_diff_bps: float
    ci_low: float
    ci_high: float
    ci_low_bps: float
    ci_high_bps: float
    win_fraction: float
    significant: int
    resamples: int


def write_bootstrap_csv(path: str, entries: list[tuple[str, str, BootstrapResult]]) -> None:
    """Rows of (comparison label, metric, result); diffs also given in bps."""
    rows = [
        BootstrapRow(label, metric, r.mean_diff, r.mean_diff * 1e4, r.ci_low, r.ci_high,
                     r.ci_low * 1e4, r.ci_high * 1e4, r.win_fraction, int(r.significant),
                     r.resamples)
        for label, metric, r in entries
    ]
    write_rows_csv(path, BootstrapRow, rows)


def write_decomposition_csv(path: str, reports: list[PnLReport], baseline: int = 0) -> None:
    write_rows_csv(
        path,
        ["strategy", "mean_hedge_gains", "mean_transaction_costs", "mean_payoff",
         "mean_net_pnl", "diff_gains", "diff_costs", "diff_payoff", "diff_net"],
        decompose_pnl(reports, baseline=baseline),
    )


@dataclass
class TradeStatsRow:
    strategy: str
    average_trade_size: float
    mean_transaction_costs: float


def write_trade_stats_csv(path: str, reports: list[PnLReport]) -> None:
    rows = [TradeStatsRow(r.strategy_label, float(r.trade_size.mean()),
                          float(r.transaction_costs.mean())) for r in reports]
    write_rows_csv(path, TradeStatsRow, rows)


def write_blend_curves_csv(path: str, psi_grid: np.ndarray, curves: dict[str, np.ndarray]) -> None:
    """alpha(psi) samples for each fitted objective."""
    names = sorted(curves)
    rows = [
        [float(psi_grid[i])] + [float(curves[name][i]) for name in names]
        for i in range(psi_grid.size)
    ]
    write_rows_csv(path, ["disagreement"] + [f"alpha_{n}" for n in names], rows)


def write_cvar_bars_csv(path: str, entries: list[tuple[str, str, float]],
                        level: float = 0.05) -> None:
    """(calibration, strategy, cvar) rows for bar-chart data."""
    write_rows_csv(path, ["calibration", "strategy", _cvar_column(level)], entries)


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path: str, config_record: dict, artifact_dir: str) -> dict:
    """Run manifest: full configuration plus a hash of every artifact."""
    artifacts = {}
    for name in sorted(os.listdir(artifact_dir)):
        full = os.path.join(artifact_dir, name)
        if os.path.isfile(full) and not name.endswith("manifest.json"):
            artifacts[name] = file_sha256(full)
    manifest = {"config": config_record, "artifacts": artifacts}
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
