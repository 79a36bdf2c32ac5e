"""Fast self-test of the benchmark.

Runs every workload at a tiny size with one pass, untraced and traced,
and checks that each run prints every metric BENCHMARK.json declares,
by name and with its unit, in its human-readable lines and in the JSON
result, and that no job failed.  Run from the root of a source checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 300


def check_run(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                      f"attempted={result.get('attempted')}: {proc.stderr.strip()[-500:]}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"{where}: metrics {sorted(set(metrics) ^ set(declared))} "
                      "differ from BENCHMARK.json")
    printed = {line.split()[1]: line.split()[3:5] for line in lines if line.startswith("metric ")}
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {name} reported as {got}, declared unit {unit}")
        if printed.get(name, [None, None])[1] != unit:
            errors.append(f"{where}: {name} printed as {printed.get(name)}, declared unit {unit}")
    if printed.get("failed_frac") != ["0", "ratio"]:
        errors.append(f"{where}: failed_frac printed as {printed.get('failed_frac')}, expected 0 ratio")
    return errors


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            found = check_run(workload, trace, declared)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
