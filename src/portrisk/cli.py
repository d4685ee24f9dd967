"""Command line entry point.

Subcommands mirror the library one to one and stay thin: parse flags,
call the library, serialize results.  estimate and hclub build one
EstimatorSpec from their flags, and hclub assesses its one portfolio with
FittedEstimator.assess; empirical takes its defaults from BacktestConfig.
Exit codes: 0 success, 1 usage errors, 2 data errors (ill-formed inputs,
and paths that cannot be read or written: a missing file, a directory
given as a file, a file given as --output-dir), 3 numerical failures
(singular matrices, non-convergence); a closed stdout (portrisk report |
head) ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from ._version import __version__
from .assessment import _CLAMPED_WARNING, DEFAULT_LAGS, EstimatorSpec, hclub_z
from .backtest import BacktestConfig, run_empirical_study
from .blas import single_thread
from .errors import DataError, NumericalError, UsageError
from .estimators import ESTIMATOR_NAMES, THRESHOLD_RULES
from .panels import ParseConfig, load_factors_csv, load_returns_csv
from .portfolios import Portfolio, equal_weight, sample_random_weights
from .reporting import (
    _EXPERIMENT_MARKDOWN,
    _markdown_table,
    backtest_markdown,
    backtest_records_csv,
    backtest_summary_csv,
    experiment_cells_csv,
    experiment_figures_csv,
    experiment_markdown,
)
from .serialization import (
    default_asset_labels,
    make_header_lines,
    read_csv,
    read_portfolio_csv,
    write_assessment_csv,
    write_covariance_binary,
    write_covariance_csv,
    write_csv,
)

# the simulate engine, and through it the process pool, loads on the
# first use of one of its names; they resolve as attributes of this module
_ENGINE_NAMES = ("parse_grid_config", "run_experiment")


def __getattr__(name):
    if name not in _ENGINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulation

    value = globals()[name] = getattr(simulation, name)
    return value


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; we reserve 2 for
    data problems, so usage failures are rethrown and mapped to 1."""

    def error(self, message):
        raise UsageError(message)


def _delimiter(value: str) -> str:
    if len(value) != 1:
        raise argparse.ArgumentTypeError(f"expected one character, got {value!r}")
    return value


def _numbers(value: str) -> tuple:
    """The numbers of a comma list."""
    try:
        return tuple(float(x) for x in value.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {value!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="portrisk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"portrisk {__version__}")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed for anything random (default 0)")
    parser.add_argument("--threads", type=int, default=None,
                        help="CPUs a simulation uses: one worker process each, "
                             "every worker on one BLAS thread "
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
        p.add_argument("--delimiter", default=",", type=_delimiter)

    def add_estimator_flags(p):
        p.add_argument("--estimator", required=True, choices=ESTIMATOR_NAMES)
        p.add_argument("--K", type=int, default=EstimatorSpec.K,
                       help="latent factor count for poet (default %(default)s)")
        p.add_argument("--auto-K", action="store_true",
                       help="pick K by the information criterion (poet only)")
        p.add_argument("--k-max", type=int, default=EstimatorSpec.k_max,
                       help="upper bound for --auto-K (default %(default)s)")
        C, rule = EstimatorSpec.C_DEFAULTS, EstimatorSpec.RULES
        p.add_argument("--C", type=float, default=None, help=(
            f"threshold constant (default: {C['factor']:g}*K for factor, {C['poet']:g} for poet)"))
        p.add_argument("--rule", choices=THRESHOLD_RULES, default=None, help=(
            f"threshold rule (default: {rule['factor']} for factor, {rule['poet']} for poet)"))
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
    p.add_argument("--L", type=int, default=DEFAULT_LAGS, help="lag cut-off (default %(default)s)")
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
    study = BacktestConfig()
    p.add_argument("--estimators", default=",".join(study.estimators),
                   help="comma list from {sample,factor,poet}")
    p.add_argument("--estimation-window", type=int, default=study.estimation_window)
    p.add_argument("--holding-window", type=int, default=study.holding_window)
    p.add_argument("--exposures", default=",".join(f"{c:g}" for c in study.exposures),
                   type=_numbers,
                   help="comma list of gross bounds")
    p.add_argument("--tau", type=float, default=study.tau)
    p.add_argument("--L", type=int, default=study.L)
    p.add_argument("--exact-z", action="store_true",
                   help="exact normal quantile instead of the rounded 2.58")
    p.add_argument("--poet-K", type=int, default=study.poet_K)
    p.add_argument("--auto-K", action="store_true",
                   help="re-select the POET factor count per window")
    p.add_argument("--periods-per-year", type=float, default=study.periods_per_year)
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


def _fit(args):
    """The returns panel and the estimator its flags describe, fitted on it."""
    spec = EstimatorSpec(args.estimator, rule=args.rule, C=args.C,
                         K=None if args.auto_K else args.K, k_max=args.k_max,
                         demean=not args.no_demean, ensure_pd=args.ensure_pd)
    returns, factors = _load_panels(args, need_factors=args.estimator == "factor")
    return returns, spec.fit(returns, factors)


@single_thread()
def _cmd_estimate(args) -> int:
    returns, fitted = _fit(args)
    est = fitted.estimate
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


@single_thread()
def _cmd_hclub(args) -> int:
    if not 0 < args.tau < 1:
        raise UsageError(f"--tau must lie in (0, 1), got {args.tau}")
    if args.L < 0:
        raise UsageError(f"--L must be nonnegative, got {args.L}")
    returns, fitted = _fit(args)
    pf = _portfolio_for(args, returns)
    with warnings.catch_warnings():
        # the warning line below reports a clamped long-run variance
        warnings.filterwarnings("ignore", _CLAMPED_WARNING, RuntimeWarning)
        variances, sigma2, u_variance, clamped = fitted.assess(
            pf.weights[:, None], args.L, hclub_z(args.tau, args.paper_z))
    vhat, u_var = float(variances[0]), float(u_variance[0])
    if not vhat > 0:
        raise NumericalError(f"estimated variance {vhat:.3e} is not positive; "
                             "try --ensure-pd")
    u_risk = u_var / np.sqrt(4.0 * vhat)

    nan = float("nan")
    row = {
        "estimator": fitted.estimate.kind, "N": returns.N, "T": returns.T,
        "c": pf.gross_exposure, "L": args.L, "tau": args.tau,
        "variance_hat": vhat, "risk_hat": float(np.sqrt(vhat)),
        "sigma2_hat": float(sigma2[0]),
        "u_variance": u_var, "u_risk": u_risk,
        # xi, delta and RE1 need the unknown true covariance; RE2 is
        # reported against the estimate itself
        "xi": nan, "delta": nan, "re1": nan,
        "re2": u_var / (4.0 * vhat),
        "clamped": bool(clamped[0]),
    }
    name = args.out or "assessment.csv"
    path = _outdir(args) / name
    write_assessment_csv(path, [row], make_header_lines())
    if row["clamped"]:
        print("warning: negative long-run variance clamped to zero; "
              "the bound below is degenerate", file=sys.stderr)
    risk = row["risk_hat"]
    print(f"variance {vhat:.6g} with U({args.tau})={u_var:.6g}")
    print(f"risk {risk:.6g} +- {u_risk:.6g}, interval "
          f"[{risk - u_risk:.6g}, {risk + u_risk:.6g}]")
    print(f"wrote {path}")
    return 0


def _cmd_sample_portfolios(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    from .rng import derive_rng

    rng = derive_rng(_seed(args), "cli-portfolios", args.n_assets,
                     float(args.exposure))
    # one column per portfolio, drawn in full before the file is opened
    W = sample_random_weights(args.n_assets, args.exposure, rng, P=args.count)
    path = _outdir(args) / (args.out or "portfolios.csv")
    assets = default_asset_labels(args.n_assets)
    write_csv(path, make_header_lines(seed=_seed(args)), ("portfolio", "asset", "weight"),
              ((i, a, w) for i, col in enumerate(W.T) for a, w in zip(assets, col)))
    print(f"wrote {path} ({args.count} portfolios, N={args.n_assets}, "
          f"exposure {args.exposure:g})")
    return 0


def _cmd_simulate(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{args.config}: not UTF-8 text ({exc.reason})") from None
    import hashlib

    # looked up on the module, so a wrapper installed there is the one called
    engine = sys.modules[__name__]
    cfg = engine.parse_grid_config(text)
    seed = args.seed if args.seed is not None else cfg.base_seed
    config_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
    out = _outdir(args)
    report = engine.run_experiment(cfg.cells, cfg.replications, workers=args.threads,
                                   base_seed=seed)
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
    config = BacktestConfig(
        estimation_window=args.estimation_window,
        holding_window=args.holding_window,
        exposures=args.exposures,
        estimators=estimators,
        L=args.L,
        tau=args.tau,
        paper_z=not args.exact_z,
        poet_K=None if args.auto_K else args.poet_K,
        periods_per_year=args.periods_per_year,
    )
    returns, factors = _load_panels(args, need_factors="factor" in estimators)
    out = _outdir(args)
    report = run_empirical_study(returns, factors, config)
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
    rows = read_csv(args.cells)
    if len(rows) < 2:
        raise DataError(f"{args.cells}: no data rows")
    header, body = rows[0], rows[1:]
    # the columns of simulate's markdown table, under their CSV names
    fields = [field for _, field in _EXPERIMENT_MARKDOWN]
    try:
        idx = [header.index(field) for field in fields]
    except ValueError as exc:
        raise DataError(f"{args.cells}: {exc}") from None
    for i, row in enumerate(body, start=1):
        if len(row) < len(header):
            raise DataError(f"{args.cells}: data row {i} has {len(row)} fields, "
                            f"the header {len(header)}")

    def fmt(value):
        # an integer (N, T) as written, any other number to four digits
        try:
            return value if value.strip().lstrip("+-").isdecimal() else f"{float(value):.4g}"
        except ValueError:
            return value

    print(_markdown_table(fields, ([fmt(row[i]) for i in idx] for row in body)))
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
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader left (portrisk report | head): keep the exit flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        # OSError: a path that cannot be read or written (missing, a directory)
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
