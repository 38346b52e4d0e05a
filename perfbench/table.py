"""Print every benchmark metric by name and unit, one row per workload and metric.

Run from the repository root:

    python3 perfbench/table.py            # end-to-end metrics, tracing off
    python3 perfbench/table.py --trace    # per-layer metrics and self-time trees

Each workload runs in its own process through ``perfbench/run.py``, with
seed 1 and the run length from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true", help="per-layer metrics")
    args = parser.parse_args(argv)
    rows, status = [], 0
    for name in [w["name"] for w in SPEC["workloads"]]:
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(SEED),
                "--seconds", str(SPEC["run_seconds"]),
                "--trace", str(int(args.trace)),
            ],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: benchmark exited with code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        if args.trace:
            print(f"--- {name}: self-time tree of the first traced operation")
            print("\n".join(lines[:-2]))
        checks = "ok" if result["correct"] else "FAILED"
        rows.append(
            (name, "(checks)", f"{result['failed']}/{result['attempted']} failed", checks)
        )
        for metric, m in result["metrics"].items():
            rows.append((name, metric, f"{m['value']:.6g}", m["unit"]))
        status |= not result["correct"]
    rows.insert(0, ("workload", "metric", "value", "unit"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return status


if __name__ == "__main__":
    sys.exit(main())
