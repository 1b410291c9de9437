"""quadherald benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload strong-squeezing --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src/`` (nothing is installed).  The run:

1. pins BLAS/OpenMP to one thread, imports the package, draws the ops of
   the first cycle from ``--seed`` and makes one untimed warm-up call;
2. runs cycles of ops, one op at a time, until the ops have taken
   ``--seconds`` seconds and at least three whole cycles have run; each
   op's output is checked right after it, outside the timed interval.
   The timings are medians per stratum (op position in a cycle) over the
   cycles, so one stalled op does not move them;
3. runs the workload's known-defect ops (fixed inputs inside the
   program's known defect region) once, untimed, and prints their check
   status; they do not count towards ``correct``, ``attempted`` or
   ``failed``;
4. with ``--trace 0``, starts the set-up of step 1 in five fresh
   processes and reports the median as ``setup_s``; with ``--trace 1``,
   replays the first cycle's ops in this process, each once untraced and
   once with every public layer function wrapped (cli-sweeps also as
   fresh CLI processes), and reports the per-layer metrics (totals over
   that cycle), the tracing overhead and the ROADMAP reference points.

It prints the environment, every op with its check status and every
metric with its unit; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  A JSON report and,
when traced, the spans are written to ``perfbench/out/``.  Without
``src/quadherald`` in the checkout it exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_PIN:            # before numpy is imported, here and in children
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 5
MIN_CYCLES = 3                    # so that a per-stratum median drops an outlier
REPEATS = 3                       # repeats of each cheap reference point


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "quadherald" / "__init__.py").is_file():
        _die(f"no quadherald package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import quadherald
    if Path(quadherald.__file__).resolve().parent != SRC / "quadherald":
        _die(f"imported quadherald from {quadherald.__file__}, not from {SRC}")
    return quadherald


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _make_workload(name: str, qh, seed: int, tmp: str):
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    if name == "cli-sweeps":
        return cls(qh, seed, str(SRC), tmp)
    return cls(qh, seed)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------

def timed_phase(wl, seconds: float, max_ops: int) -> tuple[list[dict], int]:
    """Ops until their time reaches ``seconds`` and MIN_CYCLES cycles are done.

    Returns the records and the number of cycles started.
    """
    records, elapsed, cycle = [], 0.0, 0
    while True:
        for slot, op in enumerate(wl.cycle(cycle)):
            start = time.perf_counter()
            try:
                out, error = wl.run(op), None
            except Exception as exc:  # an op that raises is a failed op
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            if error is None:
                try:
                    error = wl.check(op, out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            del out
            records.append({"cycle": cycle, "slot": slot, "op": op,
                            "latency_s": latency, "error": error})
            elapsed += latency
            if len(records) == max_ops or (elapsed >= seconds and cycle >= MIN_CYCLES):
                return records, cycle + 1
        cycle += 1


def end_to_end(records: list[dict], peak_rss_kb: int) -> dict:
    """ops_per_s and latency_p50_ms from each stratum's median latency.

    A stratum's median over the cycles stands for its op; ``ops_per_s``
    is the number of strata over the sum of those medians (a cycle's
    ops per second, one stall aside) and ``latency_p50_ms`` their median.
    """
    by_slot: dict = {}
    for r in records:
        by_slot.setdefault(r["slot"], []).append(r["latency_s"])
    typical = [statistics.median(v) for v in by_slot.values()]
    lat = sorted(r["latency_s"] for r in records)
    out = {
        "ops_per_s": len(typical) / sum(typical),
        "latency_p50_ms": 1e3 * statistics.median(typical),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "raw_ops_per_s": len(lat) / sum(lat),     # ops over the timed seconds
    }
    if len(lat) >= 100:           # at least ten samples beyond the 90th percentile
        out["latency_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[-1]
    return out


def known_defects(wl) -> list[dict]:
    """Run the workload's known-defect ops once, untimed, with the checks."""
    out = []
    for op in wl.KNOWN_DEFECTS:
        try:
            error = wl.check(op, wl.run(op))
        except Exception as exc:  # noqa: BLE001
            error = f"raised {type(exc).__name__}: {exc}"
        out.append({"op": wl.describe(op), "error": error})
    return out


def setup_seconds(args) -> list[float]:
    """Process start to ready-for-first-op, in fresh processes."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up run failed")
    return times


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

IMPORT_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\nimport numpy\nt1 = time.perf_counter()\n"
    "import scipy.special\nt2 = time.perf_counter()\n"
    "import quadherald.cli\nt3 = time.perf_counter()\n"
    "print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))\n")


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_probe() -> dict:
    """Fresh-process import of quadherald.cli, with its breakdown."""
    walls, parts = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(),
                              capture_output=True, text=True, check=True, timeout=120)
        walls.append(time.perf_counter() - start)
        parts.append(json.loads(proc.stdout))
    numpy_s, scipy_s, rest_s = (_median(col) for col in zip(*parts))
    return {"cli.import_s": _median(walls), "ref.import_numpy_s": numpy_s,
            "ref.import_scipy_special_s": scipy_s, "ref.import_quadherald_rest_s": rest_s}


def reference_points(qh) -> dict:
    """The ROADMAP item 1 baselines, measured untraced."""
    from quadherald.sweeps import FigureJob, SweepSpec, build_figure, run_sweep
    import numpy as np
    s, w, d = qh.Squeezing, qh.AcceptanceWindow.threshold, qh.DetectorModel
    out = {}
    for lam in (0.9, 0.99, 0.995):
        out[f"ref.photon_distribution.x0_2_eta_0.8_lam_{lam}_ms"] = 1e3 * _median(
            [_timed(qh.photon_distribution, s(lam), w(2.0), d(eta=0.8))
             for _ in range(REPEATS)])
    spec = SweepSpec(lam=tuple(np.linspace(0.05, 0.5, 40)),
                     x0=tuple(np.linspace(0.0, 4.0, 250)), quantities=("C", "mean", "Q"))
    out["ref.sweep_1e4_C_mean_Q_ms"] = 1e3 * _median(
        [_timed(run_sweep, spec) for _ in range(REPEATS)])
    for fig in ("fig3", "fig6"):
        out[f"ref.{fig}_ms"] = 1e3 * _median(
            [_timed(build_figure, FigureJob(fig)) for _ in range(REPEATS)])
    out["ref.mc_lam_0.25_x0_2_s_per_1e6_shots"] = _timed(
        qh.monte_carlo_experiment, s(0.25), w(2.0), d(), 10**6, 1)
    out["ref.mc_lam_0.9_x0_2_eta_0.8_s_per_1e6_shots"] = _timed(
        qh.monte_carlo_experiment, s(0.9), w(2.0), d(eta=0.8), 10**6, 1)
    cmd = [sys.executable, "-m", "quadherald.cli", "stats", "--lambda", "0.25", "--x0", "2"]
    out["ref.cli_stats_wall_s"] = _median(
        [_timed(lambda: subprocess.run(cmd, env=_child_env(), check=True, timeout=120,
                                       stdout=subprocess.DEVNULL))
         for _ in range(REPEATS)])
    return out


def traced_phase(qh, wl, records: list[dict], spans_path: Path) -> dict:
    """Replay the first cycle's ops, each untraced then traced."""
    import quadherald.cli  # noqa: F401  (the tracer wraps cli too)
    import quadherald.sweeps  # noqa: F401
    from tracing import GROUPS, Tracer

    def replay(rec):
        try:
            wl.run(rec["op"])
        except Exception:  # noqa: BLE001  (failures were counted untraced)
            pass

    cli = wl.name == "cli-sweeps"
    ops = [rec for rec in records if rec["cycle"] == 0]
    tracer = Tracer()
    untraced, traced = [], []
    for i, rec in enumerate(ops):
        untraced.append(_timed(replay, rec))
        tracer.op = i
        tracer.install(qh)
        try:
            with tracer.span("op"):
                traced.append(_timed(replay, rec))
        finally:
            tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path)

    m = tracer.layer_metrics()
    # a fresh process per op against the same op through cli.main
    m["cli.process_overhead_ms"] = (
        1e3 * _median([_timed(wl.run_process, rec["op"]) - t
                       for rec, t in zip(ops, untraced)]) if cli else 0.0)
    m["trace_overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    m.update(import_probe())
    m.update(reference_points(qh))
    return {"metrics": m, "groups": tracer.group_metrics(),
            "moves": {k: grp.moves for k, grp in GROUPS.items()}}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

UNITS = {"ops_per_s": "1/s", "raw_ops_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}
E2E_KEYS = ("ops_per_s", "latency_p50_ms", "setup_s", "peak_rss_mb")


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("s_per_1e6_shots", "s"),
                         ("us_per_call", "us"), ("_frac", "ratio"), ("_ratio", "ratio"),
                         (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("strong-squeezing", "cli-sweeps", "montecarlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many ops (self-test); 0 = no limit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        _die("--seed must be nonnegative")

    qh = _import_package()
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        wl = _make_workload(args.workload, qh, args.seed, tmp)
        wl.cycle(0)
        wl.warmup()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return _benchmark(args, qh, wl)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _benchmark(args, qh, wl) -> int:
    import mpmath
    import numpy
    import scipy

    records, cycles = timed_phase(wl, args.seconds, args.max_ops)
    e2e = end_to_end(records, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    defects = known_defects(wl)   # after the peak RSS is read
    failed = sum(r["error"] is not None for r in records)
    e2e["failed_frac"] = failed / len(records)

    from workloads import WORKLOADS
    env = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "quadherald": qh.__version__,
        "blas_pin": {var: os.environ[var] for var in BLAS_PIN},
        "loop": "closed loop, one client, one process",
        "op_size": wl.op_size,
        "ops": {"attempted": len(records), "failed": failed, "cycles": cycles,
                "per_cycle": len(wl.cycle(0))},
        "why": {name: cls.why for name, cls in WORKLOADS.items()},
        "known_defects": {"ops": len(defects),
                          "failing": sum(d["error"] is not None for d in defects)},
    }
    print("env " + json.dumps(env))
    for i, rec in enumerate(records):
        status = "ok" if rec["error"] is None else f"FAIL {rec['error']}"
        print(f"op {i} cycle={rec['cycle']} {wl.describe(rec['op'])} "
              f"latency_ms={1e3 * rec['latency_s']:.3f} {status}")
    for d in defects:   # ROADMAP open item 2; not part of the result's counts
        status = "ok (fixed?)" if d["error"] is None else f"FAIL {d['error']}"
        print(f"known-defect {d['op']} {status}")

    report = {"env": env, "ops": [dict(r, op=wl.describe(r["op"])) for r in records],
              "known_defects": defects}
    if args.trace == 0:
        setups = setup_seconds(args)
        e2e["setup_s"] = _median(setups)
        report["setup_runs_s"] = setups
        metrics = {k: e2e[k] for k in E2E_KEYS}
    else:
        traced = traced_phase(qh, wl, records, OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
        report.update(traced)
        metrics = traced["metrics"]
        for group, moves in traced["moves"].items():
            print(f"layer {group} moves {moves}")
    report["end_to_end"] = e2e
    for name, value in {**e2e, **metrics}.items():
        print(f"metric {name} = {value:.6g} {_unit(name)}")
    (OUT / f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
