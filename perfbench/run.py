"""netpoverty benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root (the package is imported from ``src/``;
nothing needs to be installed):

    python3 perfbench/run.py --workload report-cli --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, one process):

* ``report-cli``  -- ``python -m netpoverty compute`` as a child process
  on a generated 100,000 x 5 CSV with an id column;
* ``sweep-wide``  -- in-process API calls on a 50,000 x 20 population
  with a dense asymmetric structure and non-uniform weights;
* ``axiom-suite`` -- ``run_axiom_suite(1.0, GeneratorSettings(trials=200,
  seed=<seed>))``.

``--trace 0`` reports the end-to-end metrics, measured with tracing
off.  ``--trace 1`` alternates untraced and traced operations, prints
the self-time tree of the first traced one, and reports the per-layer
metrics.  Every output is checked; a failed check counts the operation
as failed.  The last stdout line is the JSON result; the line before it
holds the machine facts and the checked output digests.  Inputs,
outputs, spans and the result are kept under ``perfbench/_out/``.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

# BLAS runs on one thread for the whole run, and this is part of the
# workload definition: the compute child, the set-up launches and the
# in-process calls inherit it, not only the oracle.  A kernel that moves
# to BLAS is therefore measured single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

#: workload names, metric names and units come from BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
LAYERS = (
    "cli",
    "dataio",
    "core",
    "deprivation",
    "bounds",
    "identification",
    "aggregation",
    "weights",
    "axioms",
)
TOL = 1e-12
SETUP_LAUNCHES = 16

#: default sizes; the smoke check passes smaller ones
SIZES = {
    "report-cli": {"n": 100_000, "d": 5},
    "sweep-wide": {"n": 50_000, "d": 20, "regions": 8},
    "axiom-suite": {"trials": 200},
}

SELF_TIMED = (
    "cli.main",
    "dataio.load_dataset",
    "dataio.build_report",
    "dataio.render_report",
    "bounds.attainable_scores",
    "deprivation.deprivation_matrix",
    "deprivation.deprivation_counts",
    "aggregation.fgt_network_adjusted",
    "aggregation.fgt_naive",
    "aggregation.decompose_by_group",
    "weights.fgt_via_coefficients",
    "identification.identify",
    "core.validate",
    "axioms.run_axiom_suite",
)
CALL_COUNTED = (
    "deprivation.deprivation_matrix",
    "deprivation.deprivation_counts",
    "aggregation.fgt_network_adjusted",
    "identification.identify",
    "core.validate",
)
#: public functions whose work is N x d (or more) per call
ND_FUNCTIONS = (
    "deprivation.gap_matrix",
    "deprivation.deprivation_matrix",
    "deprivation.deprivation_counts",
    "aggregation.fgt_network_adjusted",
    "aggregation.fgt_naive",
    "aggregation.decompose_by_group",
    "weights.fgt_via_coefficients",
)
#: N x d x d score passes each call makes in the seed code (model, not measured)
SCORE_PASSES = {
    "deprivation.deprivation_matrix": 1,
    "aggregation.fgt_network_adjusted": 2,
    "aggregation.fgt_naive": 2,
    "weights.fgt_via_coefficients": 1,
}
#: per-layer counts that must repeat exactly for a fixed seed
COUNTS = (
    *(f"{name}.calls" for name in CALL_COUNTED),
    "aggregation.fgt_network_adjusted.cells",
    "dataio.load_dataset.bytes_in",
    "dataio.render_report.bytes_out",
    "dataio.build_report.nd_calls",
    "deprivation.neighbor_madds",
    "axioms.fgt_calls_per_trial",
    "axioms.identify_calls_per_trial",
)


def _shape(args, kwargs, result):
    y = args[0] if args else kwargs["achievements"]
    return np.shape(getattr(y, "values", y))


WORK = {
    "dataio.load_dataset": lambda a, kw, r: os.path.getsize(a[0] if a else kw["path"]),
    # json.dumps escapes non-ASCII by default, so length is the byte count
    "dataio.render_report": lambda a, kw, r: len(r) if r.isascii() else len(r.encode()),
    **{name: _shape for name in SCORE_PASSES},
}


# --- helpers ---------------------------------------------------------------------


def machine_facts(array_bytes: int) -> dict:
    llc_level, llc_bytes = 0, None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        if level >= llc_level:
            llc_level, llc_bytes = level, int(size.rstrip("KMG")) * scale
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "llc_level": llc_level or None,
        "llc_bytes": llc_bytes,
        "input_array_bytes": array_bytes,
        "arrays_exceed_4x_llc": bool(llc_bytes) and array_bytes >= 4 * llc_bytes,
        "bandwidth_ratio": None,
        "note": "bytes and multiply-adds are computed from array shapes, not "
        "measured; no bandwidth ratio is reported",
    }


def setup_launch(config_path: Path) -> float:
    """Wall time of a fresh interpreter that imports netpoverty and loads the config."""
    code = "import sys, netpoverty; netpoverty.load_config(sys.argv[1])"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(config_path)], env=child_env(), check=True)
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def write_config(path: Path, cutoffs, alpha, k_fraction, dependence, weights=None):
    doc = {
        "cutoffs": [float(v) for v in cutoffs],
        "alpha": alpha,
        "k": {"mode": "fraction", "value": k_fraction},
        "dependence": [[float(v) for v in row] for row in dependence],
    }
    if weights is not None:
        doc["weights"] = [float(v) for v in weights]
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def random_structure(rng, d: int, density: float, grid: bool) -> np.ndarray:
    """Asymmetric d x d structure with unit diagonal and the given off-diagonal density."""
    if grid:  # thousandths, as an analyst would type them
        values = rng.integers(1, 1001, (d, d)) / 1000.0
    else:
        values = rng.uniform(0.05, 1.0, (d, d))
    m = np.where(rng.random((d, d)) < density, values, 0.0)
    np.fill_diagonal(m, 1.0)
    if np.array_equal(m, m.T):
        m[0, 1], m[1, 0] = 0.5, 0.0
    return m


# --- independent oracle ----------------------------------------------------------


def oracle(y, z, m, w, alpha, k, naive=False):
    """FGT value and counts by a separate route: BLAS neighbor sums, fsum over poor cells."""
    d = z.shape[0]
    off = m - np.diag(np.diag(m))

    def scores(a):
        g = np.where(y < z, (np.maximum(z - y, 0.0) / z) ** a, 0.0)
        return (g + (g @ off.T) / (d - 1)) * w

    counts = scores(0.0).sum(axis=1)
    poor = counts >= k
    total = math.fsum(scores(alpha)[poor].ravel())
    if naive:
        return total / (y.shape[0] * d), counts
    ceiling = d + (math.fsum(w[j] * math.fsum(m[:, j]) for j in range(d)) - d) / (d - 1)
    return total / (y.shape[0] * ceiling), counts


def close(a, b) -> bool:
    return abs(a - b) <= TOL


# --- workloads -------------------------------------------------------------------


class ReportCli:
    """``netpoverty compute`` on a generated CSV; one operation is one invocation."""

    def __init__(self, rng, workdir: Path, n: int, d: int):
        self.n = self.items_per_op = n
        self.ops_per_op = 1
        z_q = rng.integers(5_000, 20_001, d)
        q = rng.integers(0, 3 * z_q + 1, (n, d))
        self.y, self.z = q / 1000.0, z_q / 1000.0
        self.m = random_structure(rng, d, density=0.3, grid=True)
        self.dataset = workdir / "dataset.csv"
        self.config = workdir / "config.json"
        self.report = workdir / "report.json"
        self.stderr = workdir / "compute.stderr"
        lines = ["id," + ",".join(f"dim{j + 1}" for j in range(d))]
        lines += [
            f"p{i + 1:06d}," + ",".join(f"{v // 1000}.{v % 1000:03d}" for v in row)
            for i, row in enumerate(q.tolist())
        ]
        self.dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_config(self.config, self.z, 1.0, 0.33, self.m)
        self.argv = [
            "compute",
            "--dataset", str(self.dataset),
            "--config", str(self.config),
            "--out", str(self.report),
        ]
        self.array_bytes = self.y.nbytes
        self.reference: str | None = None
        self.checked_ok = False

    def run_child(self) -> tuple[float, float, bool]:
        """(wall seconds, peak RSS in MB, exited 0) of one compute child."""
        cmd = [sys.executable, "-m", "netpoverty", *self.argv]
        with open(self.stderr, "wb") as err:
            gc.collect()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode == 0

    def inprocess(self, npv, cli) -> bool:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(self.argv) == 0

    def failures(self, exited_ok: bool) -> int:
        """Check the report the last operation wrote; 1 if it is wrong."""
        if not exited_ok:
            return 1
        digest = hashlib.sha256(self.report.read_bytes()).hexdigest()
        if self.reference is None:
            self.reference = digest
            self.checked_ok = self._check_content()
        return int(digest != self.reference or not self.checked_ok)

    def _check_content(self) -> bool:
        import netpoverty

        report = json.loads(self.report.read_text(encoding="utf-8"))
        w = np.ones(self.z.shape[0])
        k = report["config"]["k"]["value"]
        value, counts = oracle(self.y, self.z, self.m, w, 1.0, k)
        ok = [
            close(netpoverty.recompute_fgt_value(report), report["fgt_value"]),
            close(value, report["fgt_value"]),
            close(float(np.mean(counts >= k)), report["headcount_ratio"]),
            len(report["per_person"]) == self.n,
        ]
        return all(ok)

    def digests(self) -> dict:
        return {"report_sha256": self.reference}


class SweepWide:
    """Repeated whole-population evaluation; one operation is one sweep of 15 calls."""

    ALPHAS = (0.0, 1.0, 2.0)
    FRACTIONS = (0.2, 0.33, 0.5)

    def __init__(self, rng, workdir: Path, n: int, d: int, regions: int):
        import netpoverty as npv

        self.n = n
        self.ops_per_op = 15
        self.items_per_op = n * self.ops_per_op
        self.z = rng.uniform(5.0, 20.0, d)
        self.y = rng.uniform(0.0, 3.0, (n, d)) * self.z
        self.m = random_structure(rng, d, density=0.5, grid=False)
        u = rng.uniform(0.5, 1.5, d)
        self.w = u * (d / math.fsum(u))
        self.labels = [f"region-{r}" for r in rng.integers(0, regions, n).tolist()]
        self.config = workdir / "config.json"
        write_config(self.config, self.z, 1.0, 0.33, self.m, self.w)
        cfg = npv.load_config(self.config)
        self.cfg = cfg
        self.ceiling = cfg.score_ceiling
        self.naive_k = 0.33 * npv.upper_bound(cfg.structure)
        self.array_bytes = self.y.nbytes
        self.expected: list[float] | None = None
        self.bad: list[bool] = []

    def inprocess(self, npv, cli) -> list:
        """The 15 calls; returns one comparable result per call."""
        y, cfg = self.y, self.cfg
        z, s, w = cfg.cutoffs, cfg.structure, cfg.weights
        out = []
        for alpha in self.ALPHAS:
            for f in self.FRACTIONS:
                out.append(npv.fgt_network_adjusted(y, z, s, w, alpha, f * self.ceiling).value)
        out.append(npv.fgt_via_coefficients(y, z, s, w, 1.0, cfg.k).value)
        out.append(npv.fgt_naive(y, z, s, 1.0, self.naive_k).value)
        counts = npv.deprivation_counts(y, z, s, w)
        out.append(counts.values)
        statuses = npv.identify(counts, cfg.k, upper=self.ceiling)
        out.append(statuses.statuses)
        out.append(npv.headcount_ratio(statuses))
        result = npv.decompose_by_group(y, self.labels, cfg)
        out.append(result)
        return out

    def failures(self, results: list) -> int:
        """Failed calls in one sweep: wrong on the first sweep, or not repeated exactly."""
        flat = [
            r if not hasattr(r, "group_results")
            else (r.total.value, tuple((g, v.value) for g, v in r.group_results.items()))
            for r in results
        ]
        flat = [r.tobytes() if isinstance(r, np.ndarray) else r for r in flat]
        if self.expected is None:
            self.expected = flat
            self.bad = [not ok for ok in self._check(results)]
        return sum(
            bad or got != want for bad, got, want in zip(self.bad, flat, self.expected)
        )

    def _check(self, r: list) -> list[bool]:
        y, z, m, w, ceiling = self.y, self.z, self.m, self.w, self.ceiling
        ok = []
        for i, alpha in enumerate(self.ALPHAS):
            for j, f in enumerate(self.FRACTIONS):
                want, _ = oracle(y, z, m, w, alpha, f * ceiling)
                ok.append(close(r[3 * i + j], want))
        k = self.cfg.k
        adjusted = r[4]  # alpha = 1, k fraction 0.33
        want, counts = oracle(y, z, m, w, 1.0, k)
        ok.append(close(r[9], adjusted) and close(r[9], want))
        naive, _ = oracle(y, z, m, np.ones_like(w), 1.0, self.naive_k, naive=True)
        ok.append(close(r[10], naive))
        ok.append(float(np.max(np.abs(r[11] - counts))) <= TOL)
        ok.append(np.array_equal(r[12], (counts >= k).astype(np.int64)))
        ok.append(r[13] == float(np.mean(counts >= k)))
        dec = r[14]
        labels = np.asarray(self.labels)
        groups_ok = dec.recombines and dec.total.value == adjusted
        for g, res in dec.group_results.items():
            sub = y[labels == g]
            groups_ok &= dec.group_sizes[g] == sub.shape[0]
            groups_ok &= close(res.value, oracle(sub, z, m, w, 1.0, k)[0])
        ok.append(bool(groups_ok) and sum(dec.group_sizes.values()) == self.n)
        return ok

    def digests(self) -> dict:
        return {"sweep_values": [v for v in self.expected or () if isinstance(v, float)]}


class AxiomSuite:
    """The randomized axiom suite; one operation is one suite run."""

    def __init__(self, rng, workdir: Path, trials: int, seed: int):
        import netpoverty as npv

        self.settings = npv.GeneratorSettings(trials=trials, seed=seed)
        self.trials = trials * sum(npv.axiom_covered(a, 1.0) for a in npv.AXIOMS)
        self.items_per_op = self.ops_per_op = self.trials
        self.config = workdir / "config.json"
        d = 6
        write_config(
            self.config, rng.uniform(5.0, 20.0, d), 1.0, 0.5,
            random_structure(rng, d, density=0.35, grid=True),
        )
        self.array_bytes = 30 * d * 8
        self.expected = None

    def inprocess(self, npv, cli):
        return npv.run_axiom_suite(1.0, self.settings)

    def failures(self, reports) -> int:
        rows = [
            (r.axiom, r.trials, r.violations, r.worst_violation, r.status)
            for r in reports
        ]
        if self.expected is None:
            self.expected = rows
        if rows != self.expected:
            return self.trials
        return sum(r.violations for r in reports) + sum(
            r.trials for r in reports if r.status == "fail" and r.violations == 0
        )

    def digests(self) -> dict:
        return {"violations": sum(row[2] for row in self.expected or ())}


def make_workload(name: str, seed: int, workdir: Path, sizes: dict):
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "report-cli":
        return ReportCli(rng, workdir, **sizes)
    if name == "sweep-wide":
        return SweepWide(rng, workdir, **sizes)
    return AxiomSuite(rng, workdir, seed=seed, **sizes)


def guarded(wl, npv, cli):
    """Time one in-process operation; (wall or None, failed ops).

    An exception fails the whole operation.
    """
    try:
        gc.collect()
        t0 = time.perf_counter()
        out = wl.inprocess(npv, cli)
        wall = time.perf_counter() - t0
    except Exception:  # the benchmark must report the failure and go on
        traceback.print_exc()
        return None, wl.ops_per_op
    return wall, wl.failures(out)


# --- modes -----------------------------------------------------------------------


def measure_end_to_end(name, wl, npv, cli, seconds):
    setups, walls, mems, failed, ops = [], [], [], 0, 0
    while not walls or sum(walls) < seconds:
        # set-up launches are spread evenly over the measured time, so they
        # sample the same machine state as the operations; they are not in
        # the time budget
        while len(setups) <= SETUP_LAUNCHES * sum(walls) / seconds:
            setups.append(setup_launch(wl.config))
        if name == "report-cli":
            wall, rss, exited_ok = wl.run_child()
            bad = wl.failures(exited_ok)
            mems.append(rss)
        else:
            wall, bad = guarded(wl, npv, cli)
        ops += wl.ops_per_op
        failed += bad
        if wall is None:
            break
        walls.append(wall)
    while len(setups) < SETUP_LAUNCHES:
        setups.append(setup_launch(wl.config))
    if name != "report-cli":
        # separate, untimed pass: numpy registers its buffers with tracemalloc
        gc.collect()
        tracemalloc.start()
        try:
            failed += wl.failures(wl.inprocess(npv, cli))
            mems.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
        ops += wl.ops_per_op
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput": wl.items_per_op / statistics.median(walls) if walls else float("nan"),
        "peak_mem_mb": statistics.median(mems) if mems else float("nan"),
    }
    return metrics, ops, failed, {"op_walls_s": walls, "setup_walls_s": setups}


def layer_metrics(spans, wall: float, trials: int) -> dict:
    from spans import self_times

    selfs = self_times(spans)
    names = [s[0] for s in spans]
    out = {key: 0.0 for key in PER_LAYER}
    in_report = [False] * len(spans)
    build_calls = nd_calls = 0
    for i, span in enumerate(spans):
        name, parent = span[0], span[3]
        out[f"{name.partition('.')[0]}.self_s"] += selfs[i]
        if name in SELF_TIMED:
            out[f"{name}.self_s"] += selfs[i]
        if name in CALL_COUNTED:
            out[f"{name}.calls"] += 1
        if parent >= 0:
            in_report[i] = in_report[parent] or names[parent] == "dataio.build_report"
        if name == "dataio.build_report":
            build_calls += 1
        elif in_report[i] and name in ND_FUNCTIONS:
            nd_calls += 1
        if name == "dataio.load_dataset":
            out["dataio.load_dataset.bytes_in"] += span[5]
        elif name == "dataio.render_report":
            out["dataio.render_report.bytes_out"] += span[5]
        if name in SCORE_PASSES:
            n, d = span[5]
            out["deprivation.neighbor_madds"] += SCORE_PASSES[name] * n * d * d
            if name == "aggregation.fgt_network_adjusted":
                out["aggregation.fgt_network_adjusted.cells"] += n * d
    out["dataio.build_report.nd_calls"] = nd_calls / build_calls if build_calls else 0
    if trials:
        out["axioms.fgt_calls_per_trial"] = names.count("aggregation.fgt_network_adjusted") / trials
        out["axioms.identify_calls_per_trial"] = names.count("identification.identify") / trials
    out["trace.wall_s"] = wall
    out["trace.coverage_frac"] = sum(out[f"{layer}.self_s"] for layer in LAYERS) / wall
    return out


def measure_traced(name, wl, npv, cli, seconds, spans_path):
    from spans import Tracer, tree_lines

    tracer = Tracer(LAYERS, WORK)
    trials = wl.trials if name == "axiom-suite" else 0
    plain, traced, per_op, failed, ops = [], [], [], 0, 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, bad = guarded(wl, npv, cli)
        ops += wl.ops_per_op
        failed += bad
        first = len(tracer.spans)
        tracer.install(run=len(traced))
        try:
            traced_wall, bad_traced = guarded(wl, npv, cli)
        finally:
            tracer.uninstall()
        ops += wl.ops_per_op
        failed += bad_traced
        if wall is None or traced_wall is None:
            break
        plain.append(wall)
        traced.append(traced_wall)
        spans = [list(s) for s in tracer.spans[first:]]
        for s in spans:  # re-base parents onto this operation's slice
            s[3] = s[3] - first if s[3] >= 0 else -1
        per_op.append((spans, traced_wall))
    tracer.write(spans_path)
    if not per_op:
        return {key: float("nan") for key in PER_LAYER}, ops, failed, [], {}
    stats = [layer_metrics(spans, wall, trials) for spans, wall in per_op]
    metrics = {}
    for key in PER_LAYER:
        values = [s[key] for s in stats]
        if key in COUNTS:
            if any(v != values[0] for v in values):
                failed += 1  # counts must repeat exactly
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    tree = tree_lines(*per_op[0])
    return metrics, ops, failed, tree, {"traced_ops": len(traced), "spans": len(tracer.spans)}


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None):
    """Run one workload and return (result dict, info dict, tree lines)."""
    import netpoverty as npv
    from netpoverty import cli

    workdir = OUT / name
    workdir.mkdir(parents=True, exist_ok=True)
    wl = make_workload(name, seed, workdir, sizes or SIZES[name])
    if trace:
        metrics, ops, failed, tree, info = measure_traced(
            name, wl, npv, cli, seconds, workdir / "spans.jsonl"
        )
        units = PER_LAYER
    else:
        metrics, ops, failed, info = measure_end_to_end(name, wl, npv, cli, seconds)
        tree, units = [], END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": int(ops),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "sizes": sizes or SIZES[name],
        "machine": machine_facts(wl.array_bytes),
        "digests": wl.digests(),
        **info,
    }
    return result, info, tree


def import_checkout_package() -> bool:
    """Import netpoverty from this checkout's src/, never from elsewhere."""
    init = SRC / "netpoverty" / "__init__.py"
    if not init.is_file():
        return False
    sys.path.insert(0, str(SRC))
    import netpoverty

    return Path(netpoverty.__file__).resolve() == init.resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not import_checkout_package():
        print(f"error: no netpoverty package under {SRC}", file=sys.stderr)
        return 2
    result, info, tree = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / args.workload / f"result-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    for line in tree:
        print(line)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
