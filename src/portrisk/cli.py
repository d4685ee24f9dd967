"""Command line entry point.

Subcommands mirror the library one to one and stay thin: parse flags,
call the library, serialize results.  Exit codes: 0 success, 1 usage
errors, 2 data errors (unreadable or ill-formed inputs), 3 numerical
failures (singular matrices, non-convergence).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import logging
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .assessment import (
    autocov_factor,
    autocov_poet,
    autocov_sample,
    hclub,
)
from .backtest import BacktestConfig, run_empirical_study
from .errors import DataError, NumericalError, UsageError
from .estimators import (
    ThresholdRule,
    ensure_positive_definite,
    factor_covariance,
    ols_factor_fit,
    pca_factor_fit,
    poet_covariance,
    portfolio_variance,
    sample_covariance,
    select_num_factors,
)
from .panels import ParseConfig, load_factors_csv, load_returns_csv
from .portfolios import Portfolio, equal_weight, sample_random_portfolio
from .reporting import (
    backtest_markdown,
    backtest_records_csv,
    backtest_summary_csv,
    experiment_cells_csv,
    experiment_figures_csv,
    experiment_markdown,
)
from .rng import derive_rng
from .serialization import (
    make_header_lines,
    read_portfolio_csv,
    write_assessment_csv,
    write_covariance_binary,
    write_covariance_csv,
)
from .simulation import parse_grid_config, run_experiment

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; we reserve 2 for
    data problems, so usage failures are rethrown and mapped to 1."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="portrisk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"portrisk {__version__}")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed for anything random (default 0)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for simulations "
                             "(default: PRL_THREADS or usable CPUs, capped at 8)")
    parser.add_argument("--output-dir", default=".", help="directory for output files")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_returns_flags(p, with_factors=True):
        p.add_argument("--returns", required=True, help="returns panel CSV")
        if with_factors:
            p.add_argument("--factors", help="observed-factor panel CSV")
        p.add_argument("--percent", action="store_true",
                       help="input values are percentages; scale by 1/100")
        p.add_argument("--delimiter", default=",")

    def add_estimator_flags(p):
        p.add_argument("--estimator", required=True,
                       choices=("sample", "factor", "poet"))
        p.add_argument("--K", type=int, default=3,
                       help="latent factor count for poet (default 3)")
        p.add_argument("--auto-K", action="store_true",
                       help="pick K by the information criterion (poet only)")
        p.add_argument("--k-max", type=int, default=8,
                       help="upper bound for --auto-K (default 8)")
        p.add_argument("--C", type=float, default=None,
                       help="threshold constant (default: 0.1*K for factor, "
                            "0.5 for poet)")
        p.add_argument("--rule", choices=("hard", "soft", "scad"), default=None,
                       help="threshold rule (default: hard for factor, soft for poet)")
        p.add_argument("--no-demean", action="store_true",
                       help="estimate on raw rather than demeaned returns "
                            "(sample and poet; the factor fit always demeans)")
        p.add_argument("--ensure-pd", action="store_true",
                       help="raise the threshold until the estimate is PD "
                            "(factor and poet only)")

    p = sub.add_parser("estimate", help="estimate a covariance matrix")
    add_returns_flags(p)
    add_estimator_flags(p)
    p.add_argument("--out", default=None, help="output file name")
    p.add_argument("--binary", action="store_true",
                   help="write the packed binary format instead of CSV")

    p = sub.add_parser("hclub", help="risk estimate with its confidence bound")
    add_returns_flags(p)
    add_estimator_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--portfolio", help="asset,weight CSV")
    group.add_argument("--equal-weight", action="store_true")
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--L", type=int, default=5, help="autocovariance lag cut-off")
    p.add_argument("--paper-z", action="store_true",
                   help="use the rounded critical values 2 and 2.58")
    p.add_argument("--out", default=None, help="assessment CSV name")

    p = sub.add_parser("sample-portfolios", help="draw random bounded-exposure portfolios")
    p.add_argument("--n-assets", type=int, required=True)
    p.add_argument("--exposure", type=float, default=1.0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", default=None, help="output CSV name")

    p = sub.add_parser("simulate", help="run the replication study from a config")
    p.add_argument("--config", required=True, help="key = value grid file")
    p.add_argument("--out-prefix", default="experiment",
                   help="file name prefix for the result tables")

    p = sub.add_parser("empirical", help="rolling backtest of the risk assessments")
    add_returns_flags(p)
    p.add_argument("--estimators", default="sample,factor,poet",
                   help="comma list from {sample,factor,poet}")
    p.add_argument("--estimation-window", type=int, default=252)
    p.add_argument("--holding-window", type=int, default=21)
    p.add_argument("--exposures", default="1,1.6", help="comma list of gross bounds")
    p.add_argument("--tau", type=float, default=0.01)
    p.add_argument("--L", type=int, default=5)
    p.add_argument("--exact-z", action="store_true",
                   help="exact normal quantile instead of the rounded 2.58")
    p.add_argument("--poet-K", type=int, default=3)
    p.add_argument("--auto-K", action="store_true",
                   help="re-select the POET factor count per window")
    p.add_argument("--periods-per-year", type=float, default=252.0)
    p.add_argument("--out-prefix", default="backtest")

    p = sub.add_parser("report", help="render a saved experiment table as markdown")
    p.add_argument("--cells", required=True, help="cells CSV from 'simulate'")

    return parser


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_panels(args, need_factors: bool):
    config = ParseConfig(delimiter=args.delimiter, percent_units=args.percent)
    returns = load_returns_csv(args.returns, config)
    factors = None
    if getattr(args, "factors", None):
        factors = load_factors_csv(args.factors, config)
    if need_factors and factors is None:
        raise UsageError("--factors is required with the factor estimator")
    return returns, factors


def _estimate_and_fit(args, returns, factors):
    """Build the requested estimator plus the fit its autocov op needs."""
    demean = not args.no_demean
    if args.estimator == "sample":
        return sample_covariance(returns, demean_flag=demean), None
    if args.estimator == "factor":
        fit = ols_factor_fit(returns, factors)
        C = args.C if args.C is not None else 0.1 * factors.K
        est = factor_covariance(fit, ThresholdRule(args.rule or "hard"), C)
        if args.ensure_pd:
            est = ensure_positive_definite(est)
        return est, fit
    K = args.K
    if args.auto_K:
        K = select_num_factors(returns, min(args.k_max, min(returns.N, returns.T) - 1),
                               demean=demean)
        log.info("information criterion selected K=%d", K)
    fit = pca_factor_fit(returns, K, demean=demean)
    C = args.C if args.C is not None else 0.5
    est = poet_covariance(returns, K, ThresholdRule(args.rule or "soft"), C,
                          demean=demean, fit=fit)
    if args.ensure_pd:
        est = ensure_positive_definite(est)
    return est, fit


def _cmd_estimate(args) -> int:
    returns, factors = _load_panels(args, need_factors=args.estimator == "factor")
    est, _ = _estimate_and_fit(args, returns, factors)
    suffix = "bin" if args.binary else "csv"
    name = args.out or f"covariance_{args.estimator}.{suffix}"
    path = _outdir(args) / name
    if args.binary:
        write_covariance_binary(path, est)
    else:
        write_covariance_csv(path, est, returns.assets,
                             make_header_lines(extra=[f"estimator={est.kind}"]))
    print(f"wrote {path} (N={est.N}, kind={est.kind}, "
          f"min eigenvalue {est.min_eigenvalue:.3e})")
    return 0


def _portfolio_for(args, returns) -> Portfolio:
    if args.equal_weight:
        return equal_weight(returns.N)
    weights, names = read_portfolio_csv(args.portfolio)
    if len(names) != returns.N:
        raise DataError(
            f"portfolio has {len(names)} assets, panel has {returns.N}"
        )
    if tuple(names) != returns.assets:
        raise DataError("portfolio asset names do not match the panel's columns")
    return Portfolio(weights)


def _cmd_hclub(args) -> int:
    if not 0 < args.tau < 1:
        raise UsageError(f"--tau must lie in (0, 1), got {args.tau}")
    if args.L < 0:
        raise UsageError(f"--L must be nonnegative, got {args.L}")
    returns, factors = _load_panels(args, need_factors=args.estimator == "factor")
    est, fit = _estimate_and_fit(args, returns, factors)
    pf = _portfolio_for(args, returns)
    vhat = portfolio_variance(est, pf)
    if not vhat > 0:
        raise NumericalError(f"estimated variance {vhat:.3e} is not positive; "
                             "try --ensure-pd")
    if args.estimator == "sample":
        lrv = autocov_sample(returns, pf, L=args.L, demean=not args.no_demean)
    elif args.estimator == "factor":
        lrv = autocov_factor(fit, pf, L=args.L)
    else:
        lrv = autocov_poet(fit, pf, L=args.L)
    bound = hclub(lrv, returns.T, args.tau, vhat, est.kind, paper_z=args.paper_z)

    nan = float("nan")
    row = {
        "estimator": est.kind, "N": returns.N, "T": returns.T,
        "c": pf.gross_exposure, "L": args.L, "tau": args.tau,
        "variance_hat": vhat, "risk_hat": float(np.sqrt(vhat)),
        "sigma2_hat": lrv.sigma2,
        "u_variance": bound.u_variance, "u_risk": bound.u_risk,
        # xi, delta and RE1 need the unknown true covariance; RE2 is
        # reported against the estimate itself
        "xi": nan, "delta": nan, "re1": nan,
        "re2": bound.u_variance / (4.0 * vhat),
        "clamped": lrv.clamped,
    }
    name = args.out or "assessment.csv"
    path = _outdir(args) / name
    write_assessment_csv(path, [row], make_header_lines())
    if lrv.clamped:
        print("warning: negative long-run variance clamped to zero; "
              "the bound below is degenerate", file=sys.stderr)
    risk = row["risk_hat"]
    print(f"variance {vhat:.6g} with U({args.tau})={bound.u_variance:.6g}")
    print(f"risk {risk:.6g} +- {bound.u_risk:.6g}, interval "
          f"[{risk - bound.u_risk:.6g}, {risk + bound.u_risk:.6g}]")
    print(f"wrote {path}")
    return 0


def _cmd_sample_portfolios(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    rng = derive_rng(_seed(args), "cli-portfolios", args.n_assets,
                     float(args.exposure))
    out = _outdir(args)
    name = args.out or "portfolios.csv"
    path = out / name
    with open(path, "w", newline="") as fh:
        for line in make_header_lines(seed=_seed(args)):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(("portfolio", "asset", "weight"))
        for i in range(args.count):
            pf = sample_random_portfolio(args.n_assets, args.exposure, rng)
            for j, w in enumerate(pf.weights):
                writer.writerow((i, f"a{j:04d}", repr(float(w))))
    print(f"wrote {path} ({args.count} portfolios, N={args.n_assets}, "
          f"exposure {args.exposure:g})")
    return 0


def _cmd_simulate(args) -> int:
    text = Path(args.config).read_text()
    cfg = parse_grid_config(text)
    seed = args.seed if args.seed is not None else cfg.base_seed
    config_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
    report = run_experiment(cfg.cells, cfg.replications, workers=args.threads,
                            base_seed=seed)
    out = _outdir(args)
    header = make_header_lines(seed=seed, config_hash=config_hash)
    cells_path = out / f"{args.out_prefix}_cells.csv"
    figures_path = out / f"{args.out_prefix}_figures.csv"
    experiment_cells_csv(report, cells_path, header)
    experiment_figures_csv(report, figures_path, cfg.periods_per_year, header)
    print(experiment_markdown(report))
    print(f"wrote {cells_path}")
    print(f"wrote {figures_path}")
    return 0


def _cmd_empirical(args) -> int:
    estimators = tuple(x.strip() for x in args.estimators.split(",") if x.strip())
    exposures = tuple(float(x) for x in args.exposures.split(",") if x.strip())
    config = BacktestConfig(
        estimation_window=args.estimation_window,
        holding_window=args.holding_window,
        exposures=exposures,
        estimators=estimators,
        L=args.L,
        tau=args.tau,
        paper_z=not args.exact_z,
        poet_K=None if args.auto_K else args.poet_K,
        periods_per_year=args.periods_per_year,
    )
    returns, factors = _load_panels(args, need_factors="factor" in estimators)
    report = run_empirical_study(returns, factors, config)
    out = _outdir(args)
    header = make_header_lines()
    records_path = out / f"{args.out_prefix}_records.csv"
    summary_path = out / f"{args.out_prefix}_summary.csv"
    backtest_records_csv(report, records_path, header)
    backtest_summary_csv(report, summary_path, header)
    print(backtest_markdown(report))
    print(f"wrote {records_path}")
    print(f"wrote {summary_path}")
    return 0


def _cmd_report(args) -> int:
    with open(args.cells, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if len(rows) < 2:
        raise DataError(f"{args.cells}: no data rows")
    header, body = rows[0], rows[1:]
    keep = ("estimator", "N", "T", "c", "mean_delta", "mean_u", "mean_xi",
            "mean_re1", "mean_re2", "coverage")
    try:
        idx = [header.index(k) for k in keep]
    except ValueError as exc:
        raise DataError(f"{args.cells}: {exc}") from None

    def fmt(value):
        try:
            return f"{float(value):.4g}"
        except ValueError:
            return value

    print("| " + " | ".join(keep) + " |")
    print("|" + "|".join("---" for _ in keep) + "|")
    for row in body:
        print("| " + " | ".join(fmt(row[i]) for i in idx) + " |")
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "hclub": _cmd_hclub,
    "sample-portfolios": _cmd_sample_portfolios,
    "simulate": _cmd_simulate,
    "empirical": _cmd_empirical,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
