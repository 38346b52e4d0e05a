"""Smoke check of the benchmark at its smallest sizes.

Runs every workload once untraced and twice traced with the same seed,
then checks the result's keys, that every output check passed, and that
every count metric repeats exactly.  It sets no timing bound.  Run from the repository
root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import sys

import run

SMALL = {
    "report-cli": {"n": 300, "d": 5},
    "sweep-wide": {"n": 400, "d": 20, "regions": 8},
    "axiom-suite": {"trials": 3},
}
SEED = 3
#: long enough for exactly one operation per run
SECONDS = 1e-3


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def check_result(result: dict, label: str) -> None:
    require(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{label}: result keys {sorted(result)}",
    )
    require(result["correct"] and result["failed"] == 0, f"{label}: outputs failed checks")
    require(result["attempted"] >= 1, f"{label}: nothing attempted")


def main() -> int:
    require(run.import_checkout_package(), f"no netpoverty package under {run.SRC}")
    for name in run.WORKLOADS:
        result, _, _ = run.run(name, SEED, SECONDS, False, SMALL[name])
        check_result(result, f"{name} untraced")
        first, _, _ = run.run(name, SEED, SECONDS, True, SMALL[name])
        second, _, _ = run.run(name, SEED, SECONDS, True, SMALL[name])
        check_result(first, f"{name} traced")
        check_result(second, f"{name} traced again")
        for key in run.COUNTS:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            require(a == b, f"{name}: {key} changed between runs ({a} vs {b})")
        print(f"{name}: ok")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
