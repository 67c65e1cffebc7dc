"""Statistical evaluation, and the one writer of tables and JSON records.

The analyses (quintile win rates, uncertainty drivers, the heatmap, the P&L
decomposition, paired bootstrap tests) are pure functions of their inputs;
win is strict inequality throughout, so ties count against the candidate.

Every CSV artifact of a run is formatted by :func:`csv_text`, floats to 12
significant digits, and every JSON record is written by :func:`write_json`,
with sorted keys, so identical inputs reproduce identical bytes. The one
exception is a blend fit's record, which keeps its own key order
(``blend.BlendFit.to_json``). :func:`read_json` reads a config or a
training record back.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import rng, threads
from .errors import ParameterError, require_integer, require_real
from .market import MarketPaths
from .risk import RiskSpec, cvar, summary

if TYPE_CHECKING:
    from .accounting import PnLReport

N_QUINTILES = 5
# Fewest resamples a paired bootstrap accepts; RunConfig checks it up front.
MIN_BOOTSTRAP_RESAMPLES = 100
# Resamples a paired bootstrap draws at once. A block is evaluated while the
# next is drawn, so two blocks bound its index matrices to 2 x BOOTSTRAP_BLOCK
# x n paths.
BOOTSTRAP_BLOCK = 256


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


def heatmap_data(
    psi: np.ndarray,
    paths: MarketPaths,
    moneyness_bins: int,
    time_bins: int,
    strike: float = 1.0,
) -> list[list]:
    """Figure 2's rows: per-step disagreement binned by (time step, moneyness).

    One row per populated bin, in time-major order: ``[time_bin,
    moneyness_bin, time_center, moneyness_center, mean_disagreement,
    count]``. The moneyness edges split the observed range of spot / strike
    evenly, the time edges the step indices.
    """
    require_integer("moneyness_bins", moneyness_bins, minimum=2)
    require_integer("time_bins", time_bins, minimum=2)
    require_real("strike", strike, above=0)
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
    t_mid = (t_edges[:-1] + t_edges[1:]) / 2
    m_mid = (m_edges[:-1] + m_edges[1:]) / 2
    rows = []
    for b in np.flatnonzero(counts):
        ti, mi = divmod(int(b), moneyness_bins)
        rows.append([ti, mi, float(t_mid[ti]), float(m_mid[mi]),
                     float(sums[b] / counts[b]), int(counts[b])])
    return rows


def check_same_paths(reports: list[PnLReport]) -> None:
    """ParameterError unless there are reports and all were computed on the
    same paths: equal path counts and equal payoffs."""
    if not reports:
        raise ParameterError("no reports")
    for r in reports:
        if r.n_paths != reports[0].n_paths:
            raise ParameterError("reports cover different path counts")
        if not np.array_equal(r.payoff, reports[0].payoff):
            raise ParameterError("reports were not computed on the same paths")


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


def decompose_pnl(reports: list[PnLReport], baseline: int = 0) -> list[list]:
    """Table 6's rows: per report, its label, the means of its hedge gains,
    transaction costs, payoff and net P&L, then those four means minus the
    baseline report's."""
    check_same_paths(reports)
    means = [[float(c.mean()) for c in (r.hedge_gains, r.transaction_costs, r.payoff, r.pnl)]
             for r in reports]
    return [[r.strategy_label, *m, *(x - b for x, b in zip(m, means[baseline]))]
            for r, m in zip(reports, means)]


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
    ``BOOTSTRAP_BLOCK`` resamples at a time on the calling thread, and each
    block's metrics are evaluated on a worker while the next block is drawn
    (``threads.run_overlapped``), which changes no result."""
    pnl_a, pnl_b = _per_path(pnl_a, pnl_b)
    require_integer("resamples", resamples, minimum=MIN_BOOTSTRAP_RESAMPLES)
    n = pnl_a.size
    gen = rng.generator(rng.derive_seed(seed, rng.TAG_BOOTSTRAP))
    diffs = np.empty(resamples)

    def blocks():
        for start in range(0, resamples, BOOTSTRAP_BLOCK):
            yield start, gen.integers(0, n, size=(min(BOOTSTRAP_BLOCK, resamples - start), n))

    def evaluate(block):
        start, idx = block
        d = metric.evaluate(pnl_a[idx]) - metric.evaluate(pnl_b[idx])
        diffs[start : start + len(idx)] = d if metric.higher_is_better else -d

    threads.run_overlapped(evaluate, blocks())
    lo, hi = np.percentile(diffs, [2.5, 97.5])
    return BootstrapResult(
        mean_diff=float(diffs.mean()),
        ci_low=float(lo),
        ci_high=float(hi),
        win_fraction=float((diffs > 0).mean()),
        resamples=resamples,
    )


# -- CSV / JSON writers ---------------------------------------------------------


def csv_text(header: list[str], rows) -> str:
    """The header line, then one line per row, every line ending in ``\\n``.

    Floats (subclasses too) are written to 12 significant digits in ``g``
    format and other values as ``str``; a row that is not a list or a tuple
    is a dataclass and gives its fields in order. Each row is formatted by
    one %-format string, made once per tuple of value types. Nothing is
    quoted, so no value may hold a comma.
    """
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        if not isinstance(row, tuple):
            row = tuple(row) if isinstance(row, list) else astuple(row)
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                "%.12g" if issubclass(t, float) else "%s" for t in types)
        lines.append(fmt % row)
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def write_rows_csv(path: str, header: list[str], rows) -> None:
    """Write :func:`csv_text` of ``header`` and ``rows`` to ``path``."""
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(header, rows))


def read_json(path: str):
    """The JSON value in the file ``path``; ParameterError naming a file that
    does not decode or does not parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError
            raise ParameterError(f"{path} is not a JSON file: {exc}") from None


def write_json(path: str, record: dict) -> None:
    """Write ``record`` to ``path`` as JSON: 2-space indent, sorted keys and a
    final newline."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cvar_column(level: float) -> str:
    """The CVaR column's name: ``cvar_5pct`` at level 0.05."""
    return f"cvar_{100 * level:g}pct"


def write_comparison_csv(path: str, rows: list[ComparisonRow], level: float = 0.05) -> None:
    write_rows_csv(path, ["strategy", "mean_pnl", "std_pnl", cvar_column(level)], rows)


def write_bootstrap_csv(path: str, entries: list[tuple[str, str, BootstrapResult]]) -> None:
    """Rows of (comparison label, metric, result); diffs also given in bps."""
    write_rows_csv(
        path,
        ["comparison", "metric", "mean_diff", "mean_diff_bps", "ci_low", "ci_high",
         "ci_low_bps", "ci_high_bps", "win_fraction", "significant", "resamples"],
        [[label, metric, r.mean_diff, r.mean_diff * 1e4, r.ci_low, r.ci_high,
          r.ci_low * 1e4, r.ci_high * 1e4, r.win_fraction, int(r.significant), r.resamples]
         for label, metric, r in entries],
    )


def write_decomposition_csv(path: str, reports: list[PnLReport], baseline: int = 0) -> None:
    write_rows_csv(
        path,
        ["strategy", "mean_hedge_gains", "mean_transaction_costs", "mean_payoff",
         "mean_net_pnl", "diff_gains", "diff_costs", "diff_payoff", "diff_net"],
        decompose_pnl(reports, baseline=baseline),
    )


def write_trade_stats_csv(path: str, reports: list[PnLReport]) -> None:
    write_rows_csv(
        path,
        ["strategy", "average_trade_size", "mean_transaction_costs"],
        [[r.strategy_label, float(r.trade_size.mean()), float(r.transaction_costs.mean())]
         for r in reports],
    )


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path: str, config_record: dict, artifact_dir: str) -> dict:
    """Run manifest: the full configuration plus the SHA-256 of every file
    directly in ``artifact_dir`` but the manifest; files in subdirectories,
    such as the checkpoints in ``members/``, are not hashed."""
    artifacts = {}
    for name in sorted(os.listdir(artifact_dir)):
        full = os.path.join(artifact_dir, name)
        if os.path.isfile(full) and not name.endswith("manifest.json"):
            artifacts[name] = file_sha256(full)
    manifest = {"config": config_record, "artifacts": artifacts}
    write_json(path, manifest)
    return manifest
