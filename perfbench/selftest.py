"""Self-test of the benchmark at tiny size (three ops per workload).

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the result line
has exactly the metrics BENCHMARK.json names, with their units; that
every op and every known-defect op was printed with its check status;
and that a traced run wrote its spans.  It also checks that a copy of the benchmark without the
package exits with an error and prints no result.  Exits 1 on a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
OPS = 3


def _run(cmd, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    proc = _run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--max-ops", str(OPS)])
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["attempted"] != OPS:
        problems.append(f"attempted {result['attempted']}, expected {OPS}")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(expected.items()))}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append("a metric value is not a number")
    ops = [line for line in lines if line.startswith("op ")]
    if len(ops) != OPS or not all(" ok" in op or " FAIL " in op for op in ops):
        problems.append("not every op was printed with its check status")
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    if not env:
        problems.append("no environment record")
    elif sum(line.startswith("known-defect ") for line in lines) != env[0]["known_defects"]["ops"]:
        problems.append("not every known-defect op was printed with its status")
    if trace:
        spans = HERE / "out" / f"spans-{workload}-seed1.jsonl"
        names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
        if "op" not in names or len(names) < 2:
            problems.append(f"spans file {spans.name} lacks op or layer spans")
    return problems


def check_bare_copy() -> list[str]:
    """The benchmark alone, without src/, must fail without a result."""
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run([sys.executable, f"{HERE.name}/run.py", "--workload", "montecarlo",
                     "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["a copy without the package did not fail cleanly"]
    return []


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_run(bench, workload, trace)
            failures += bool(problems)
            print(f"{workload} trace={trace}: " + ("; ".join(problems) or "ok"), flush=True)
    problems = check_bare_copy()
    failures += bool(problems)
    print("copy without the package: " + ("; ".join(problems) or "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
