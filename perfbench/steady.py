r"""Steadiness mode: one workload over several seeds, untraced.

    python3 perfbench/steady.py --workload montecarlo --seeds 10
    python3 perfbench/steady.py --workload montecarlo --seeds 10 \
        --first-seed 11 --against perfbench/out/steady-montecarlo.json

For each end-to-end metric it prints the median over the runs and the
quartile spread (Q3 - Q1) / median, with statistics.quantiles(n=4), next
to the metric's bound in BENCHMARK.json.  The bounds there were set from
this output: every spread but that of setup_s should stay within its
bound, and below a third of it for comfort.  ``--against`` compares the
medians with an earlier summary: each may be worse by at most its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", default=None,
                        help="summary JSON of an earlier steadiness run")
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = defaultdict(list)
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: wall={wall:.1f}s attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med, "values": vals}
        bound = metrics[name]["bound"]
        print(f"{name:16s} median={med:.5g} {metrics[name]['unit']} "
              f"spread={(q3 - q1) / med:.4f} bound={bound} "
              f"({'ok' if (q3 - q1) / med < bound / 3 else 'wide'})")

    if args.against:
        earlier = json.loads(Path(args.against).read_text())
        for name, now in summary.items():
            before = earlier[name]["median"]
            worse = now["median"] / before - 1.0
            if metrics[name]["better"] == "higher":
                worse = before / now["median"] - 1.0
            print(f"{name:16s} worse by {worse:+.4f} (bound {metrics[name]['bound']}): "
                  f"{'ok' if worse <= metrics[name]['bound'] else 'REGRESSED'}")
    else:
        out = HERE / "out" / f"steady-{args.workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(summary, indent=1))
        print(f"summary written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
