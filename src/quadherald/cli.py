"""Command-line surface.

Subcommands: ``stats``, ``sweep``, ``figure``, ``montecarlo``, ``solve``.
All outputs are pure functions of the arguments (plus spec file and
seed), so repeated invocations write byte-identical files.  Exit codes:
0 success, 2 usage/parameter error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .errors import NonConvergenceError
from .oracles import monte_carlo_experiment
from .solvers import (efficiency_threshold, minimum_poissonian_threshold,
                      optimal_squeezing_for_mandel_q,
                      solve_threshold_for_mandel_q)
from .stats import (AcceptanceWindow, DetectorModel, Squeezing, _check_domain,
                    _closed_forms_at, photon_distribution)
from .sweeps import (FigureJob, SweepSpec, _json_safe, _Table, build_figure, format_csv,
                     format_json, run_sweep, FIGURE_IDS)

USAGE_ERROR, NONCONVERGENCE_ERROR = 2, 3
_FIGURE_INPUTS = ("lam", "x0", "eta", "q")   # every figure takes a subset


def _parse_grid(text: str) -> list[float]:
    """Either a comma list '0.1,0.2' or an inclusive range 'start:stop:count'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"range count must be >= 1, got {count}")
        return [float(v) for v in np.linspace(start, stop, count)]
    return [float(v) for v in text.split(",")]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_record(record: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _emit(json.dumps(_json_safe(record), indent=2) + "\n", out)
    else:
        table = _Table({key: [value] for key, value in record.items()})
        _emit(format_csv({"generator": f"quadherald {__version__}"}, [*record], table), out)


def _detector(args) -> DetectorModel:
    return DetectorModel(eta=args.eta, n_bar=args.nbar)


def _cmd_stats(args) -> int:
    """The closed forms at one point (Q null at lam = 0); with --pn also p_n, its
    order N (n_max) and its tail bound, from the FFT that only p_n needs."""
    _check_domain(tol=args.tol)
    s = Squeezing(args.lam)
    w = AcceptanceWindow.threshold(args.x0)
    d = _detector(args)
    values = _closed_forms_at(s, w, d)
    record = {
        "lambda": args.lam, "x0": args.x0, "eta": args.eta, "nbar": args.nbar,
        "tol": args.tol, "acceptance_probability": values["C"], "mean_n": values["mean"],
        "second_factorial": values["second_factorial"], "mandel_q": values["Q"],
    }
    if args.pn:
        stats = photon_distribution(s, w, d, tol=args.tol)
        record.update(n_max=stats.n_max, truncation_error_bound=stats.truncation_error_bound,
                      p=[float(v) for v in stats.p])
    _emit_record(record, args.format, args.out)
    return 0


def _format(fmt: str, table: tuple) -> str:
    return (format_json if fmt == "json" else format_csv)(*table)


def _given(args, names) -> dict:
    """The flags among ``names`` (by dest) that were set on the command line."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _cmd_sweep(args) -> int:
    given = _given(args, SweepSpec.__dataclass_fields__)
    if args.spec is None:
        spec = SweepSpec.from_dict(given)
    elif given:
        raise ValueError(f"--spec excludes the flags that set {sorted(given)}")
    else:
        spec = SweepSpec.from_json_file(args.spec)
    _emit(_format(args.format, run_sweep(spec)), args.out)
    return 0


def _cmd_figure(args) -> int:
    job = FigureJob(args.figure_id, _given(args, _FIGURE_INPUTS))
    out = args.out if args.out is not None else f"{args.figure_id}.{args.format}"
    _emit(_format(args.format, build_figure(job)), out)
    return 0


def _cmd_montecarlo(args) -> int:
    s = Squeezing(args.lam)
    w = AcceptanceWindow.threshold(args.x0)
    d = _detector(args)
    result = monte_carlo_experiment(s, w, d, shots=args.shots, seed=args.seed)
    analytic = _closed_forms_at(s, w, d)
    record = {"lambda": args.lam, "x0": args.x0, "eta": args.eta, "nbar": args.nbar,
              **result.to_dict(), "analytic_C": analytic["C"],
              "analytic_mean": analytic["mean"], "analytic_Q": analytic["Q"],
              "z_scores": {key: _zscore(getattr(result, "empirical_" + key.lower()),
                                        analytic[key], result.standard_errors[key])
                           for key in ("C", "mean", "Q")}}
    _emit_record(record, args.format, args.out)
    return 0


def _zscore(empirical: float, analytic: float, se: float) -> float:
    if not np.isfinite(se) or se == 0.0:
        return float("nan")
    return (empirical - analytic) / se


def _cmd_solve(args) -> int:
    record = {"kind": args.kind}
    if args.kind == "x0-min":
        record.update(minimum_poissonian_threshold().to_dict())
    elif args.kind == "eta-threshold":
        record.update(nbar=args.nbar, solution=efficiency_threshold(args.nbar))
    elif args.kind == "x0-for-q":
        if args.lam is None or args.q is None:
            raise ValueError("solve x0-for-q needs --lambda and --q")
        record.update({"lambda": args.lam, "q": args.q, "eta": args.eta, "nbar": args.nbar})
        record.update(solve_threshold_for_mandel_q(Squeezing(args.lam), args.q,
                                                   _detector(args)).to_dict())
    else:  # optimal-lambda
        if args.q is None:
            raise ValueError("solve optimal-lambda needs --q")
        record.update({"q": args.q, "eta": args.eta, "nbar": args.nbar})
        record.update(optimal_squeezing_for_mandel_q(args.q, _detector(args)).to_dict())
    _emit_record(record, args.format, args.out)
    return 0


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta", type=float, default=1.0,
                        help="detector efficiency (default 1)")
    parser.add_argument("--nbar", type=float, default=0.0,
                        help="auxiliary-mode thermal photons (default 0)")


def _add_grid_flags(parser: argparse.ArgumentParser, names) -> None:
    for name in names:
        parser.add_argument("--lambda" if name == "lam" else f"--{name}", dest=name,
                            type=_parse_grid, default=None,
                            help="comma list or start:stop:count")


def _add_output_flags(parser: argparse.ArgumentParser,
                      default_format: str = "json") -> None:
    parser.add_argument("--out", default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"),
                        default=default_format)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call;
    parsing reads it and returns a fresh namespace, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="quadherald",
        description="Photon statistics of quadrature-threshold heralded states")
    parser.add_argument("--version", action="version",
                        version=f"quadherald {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="single-point statistics")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    _add_detector_flags(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--pn", action="store_true",
                   help="include the photon-number distribution")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("sweep", help="Cartesian parameter sweep")
    p.add_argument("--spec", default=None, help="JSON sweep spec file")
    _add_grid_flags(p, ("lam", "x0", "eta", "nbar", "radii"))
    p.add_argument("--quantities", type=lambda text: text.split(","), default=None,
                   help="comma subset of C,mean,second_factorial,Q,p_n,husimi,wigner")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--pn-max", dest="pn_max", type=int, default=None)
    _add_output_flags(p, default_format="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="regenerate reference figure data")
    p.add_argument("figure_id", choices=FIGURE_IDS)
    _add_grid_flags(p, _FIGURE_INPUTS)
    _add_output_flags(p, default_format="csv")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("montecarlo", help="shot-level simulation")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    _add_detector_flags(p)
    p.add_argument("--shots", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("solve", help="threshold/optimum solvers")
    p.add_argument("kind", choices=("x0-for-q", "x0-min",
                                    "optimal-lambda", "eta-threshold"))
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    _add_detector_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_solve)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NonConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NONCONVERGENCE_ERROR if isinstance(exc, NonConvergenceError) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
