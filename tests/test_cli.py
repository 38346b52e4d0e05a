import contextlib
import gc
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from conftest import assert_reaped, usable_cpus
from hypothesis import given, settings, strategies as st
from test_dataio import _CSV, _JSON, fail_in_workers

from netpoverty import DependenceStructure, MethodologyConfig, WeightVector, dataio
from netpoverty.bounds import ENUMERATION_LIMIT
from netpoverty.cli import _warn_k_gap, build_parser, main

WORKED_CONFIG = {
    "cutoffs": [10.0, 10.0],
    "alpha": 1.0,
    "k": 1.0,
    "dependence": [[1.0, 0.5], [0.0, 1.0]],
}


def assert_one_error_line(err):
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture
def worked(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("health,education\n5,10\n10,10\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WORKED_CONFIG), encoding="utf-8")
    return data, config


@pytest.fixture
def intersection(tmp_path):
    """Two persons deprived in every dimension, k at the ceiling (k-fraction 1.0)."""
    data = tmp_path / "zeros.csv"
    data.write_text("a,b,c\n0,0,0\n0,0,0\n", encoding="utf-8")
    config = tmp_path / "intersection.json"
    doc = {
        "cutoffs": [1, 1, 1],
        "alpha": 1,
        "k": {"mode": "fraction", "value": 1.0},
        "dependence": [[1, 0, 0], [0, 1, 0.1], [0, 0.1, 1]],
    }
    config.write_text(json.dumps(doc), encoding="utf-8")
    return ["compute", "--dataset", str(data), "--config", str(config)]


class TestCompute:
    def test_report_to_stdout(self, worked, capsys):
        data, config = worked
        code = main(["compute", "--dataset", str(data), "--config", str(config)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fgt_value"] == 0.1
        assert report["headcount_ratio"] == 0.5

    def test_report_to_file(self, worked, tmp_path):
        data, config = worked
        out = tmp_path / "report.json"
        code = main(
            ["compute", "--dataset", str(data), "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["fgt_value"] == 0.1

    def test_diagnostic_naive_flag(self, worked, capsys):
        data, config = worked
        main(["compute", "--dataset", str(data), "--config", str(config), "--diagnostic-naive"])
        report = json.loads(capsys.readouterr().out)
        assert report["naive_diagnostic"]["label"] == "naive (manipulable)"

    def test_alpha_and_k_overrides(self, worked, capsys):
        data, config = worked
        main(["compute", "--dataset", str(data), "--config", str(config), "--alpha", "0", "--k", "1"])
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["alpha"] == 0.0

    def test_k_fraction_override(self, worked, capsys):
        data, config = worked
        main(["compute", "--dataset", str(data), "--config", str(config), "--k-fraction", "1.0"])
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["k"]["value"] == 2.5

    # a k far below the identification band's 1e-12 still leaves count 0 short of it
    @pytest.mark.parametrize("k", ["0.7", "1e-13"])
    def test_gap_warning_on_stderr(self, worked, capsys, k):
        data, config = worked
        main(["compute", "--dataset", str(data), "--config", str(config), "--k", k])
        out, err = capsys.readouterr()
        assert f"k = {float(k)!r} lies strictly between attainable counts 0.0 and 1.0;" in err
        assert json.loads(out)["headcount_ratio"] == 0.5

    def test_no_warning_when_k_on_attainable_level(self, worked, capsys):
        data, config = worked
        main(["compute", "--dataset", str(data), "--config", str(config)])
        assert capsys.readouterr().err == ""

    def test_no_warning_at_full_fraction(self, worked, capsys):
        data, config = worked
        main(["compute", "--dataset", str(data), "--config", str(config), "--k-fraction", "1.0"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag", [[], ["--k", "3.1"]], ids=["k-fraction-1", "k-3.1"])
    def test_intersection_approach_identifies_the_fully_deprived(
        self, intersection, capsys, flag
    ):
        assert main([*intersection, *flag]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["fgt_value"] == 1.0 and report["headcount_ratio"] == 1.0
        assert err == ""

    def test_gap_warning_prints_k_unrounded(self, intersection, capsys):
        assert main([*intersection, "--k-fraction", "0.9999999"]) == 0
        err = capsys.readouterr().err
        assert "lies strictly between attainable counts" in err
        assert "k = 3.1 " not in err and "and 3.1;" not in err
        assert f"k = {0.9999999 * 3.1!r} " in err

    @pytest.mark.parametrize(
        "k, warning",
        [
            (1.5545, ""),  # the count of a person deprived in dimension 2 only
            (0.6, "warning: k = 0.6 lies strictly between attainable counts 0.0 and 0.6635;"),
        ],
        ids=["on-level", "in-gap"],
    )
    def test_gap_warning_uses_counts_under_weights(self, tmp_path, capsys, k, warning):
        # the weighted jumps (0.5545, 1.6635, ...) are no person's count here
        data = tmp_path / "data.csv"
        data.write_text("a,b\n0,10\n10,0\n0,0\n", encoding="utf-8")
        config = tmp_path / "config.json"
        doc = {"cutoffs": [1, 1], "alpha": 1, "k": k,
               "dependence": [[1, 0.109], [0.109, 1]], "weights": [0.5, 1.5]}
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["compute", "--dataset", str(data), "--config", str(config)]) == 0
        out, err = capsys.readouterr()
        counts = {p["deprivation_count"] for p in json.loads(out)["per_person"]}
        assert counts == {0.6635, 1.5545, 2.218}
        assert err.startswith(warning) and (err == "") == (warning == "")

    def test_gap_warning_at_the_enumeration_limit_stays_small(self, capsys):
        # 2**20 levels: the sorted array of them is the only large allocation
        d = ENUMERATION_LIMIT
        weights = WeightVector([0.5] * 10 + [1.5] * 10)
        config = MethodologyConfig(1.0, 0.7, DependenceStructure.identity(d), weights, [1] * d)
        tracemalloc.start()
        try:
            _warn_k_gap(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**d * 8
        assert capsys.readouterr().err == (
            "warning: k = 0.7 lies strictly between attainable counts 0.5 and 1.0; "
            "any cutoff in (0.5, 1.0] identifies the same poor set\n"
        )

    def test_missing_dataset_exits_3(self, worked, capsys):
        _, config = worked
        assert main(["compute", "--dataset", "/nope.csv", "--config", str(config)]) == 3

    def test_invalid_config_exits_1(self, worked, tmp_path, capsys):
        data, _ = worked
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(WORKED_CONFIG, k=9.0)), encoding="utf-8")
        assert main(["compute", "--dataset", str(data), "--config", str(bad)]) == 1

    def test_dimension_mismatch_creates_no_report(self, worked, tmp_path, capsys):
        data, _ = worked
        config = tmp_path / "three.json"
        doc = {"cutoffs": [10.0, 10.0, 10.0], "alpha": 1.0, "k": 1.0}
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "r.json"
        argv = ["compute", "--dataset", str(data), "--config", str(config), "--out", str(out)]
        assert main(argv) == 1
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    def test_unwritable_report_exits_3(self, worked, tmp_path, capsys):
        data, config = worked
        out = tmp_path / "missing-dir" / "r.json"
        argv = ["compute", "--dataset", str(data), "--config", str(config)]
        assert main([*argv, "--out", str(out)]) == 3
        assert_one_error_line(capsys.readouterr().err)


#: more rows than the text decoder reads at once, so a fault after them
#: is met in the middle of the stream
_VALID_ROWS = b"5,10\n" * 20_000


class TestFileBoundary:
    """Undecodable, oversized or over-nested files end in one error line, exit 1."""

    @pytest.mark.parametrize(
        "data, config",
        [
            (b"health,education\n5,\xff\n", None),
            (None, b'{"cutoffs": [10, 10], "alpha": 1, "k": "\xff"}'),
            (b"health,education\n5," + b"1" * 131_073 + b"\n", None),
            (None, b"[" * 200_000 + b"]" * 200_000),
            ("health,education\n5,\u0661\u0662\n".encode(), None),
        ],
        ids=[
            "dataset-not-utf8",
            "config-not-utf8",
            "long-cell",
            "deep-config",
            "non-ascii-digits",
        ],
    )
    def test_rejected_without_traceback(self, worked, capsys, data, config):
        for path, raw in zip(worked, (data, config)):
            if raw is not None:
                path.write_bytes(raw)
        data_path, config_path = worked
        argv = ["compute", "--dataset", str(data_path), "--config", str(config_path)]
        assert main(argv) == 1
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "last_row, message",
        [
            (b"5,\xff\n", "not valid UTF-8"),
            (b"5," + b"1" * 131_073 + b"\n", "field larger than field limit"),
            (b"5,10,7\n", "row 20001 has 3 fields, header has 2"),
        ],
        ids=["not-utf8", "long-cell", "ragged"],
    )
    def test_fault_in_last_row(self, worked, tmp_path, capsys, last_row, message):
        data, config = worked
        data.write_bytes(b"health,education\n" + _VALID_ROWS + last_row)
        out = tmp_path / "report.json"
        argv = ["compute", "--dataset", str(data), "--config", str(config), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert message in err
        assert not out.exists()

    def test_first_fault_in_file_order_is_named(self, worked, tmp_path, capsys):
        data, config = worked
        data.write_bytes(b"health,education\n5,x\n" + _VALID_ROWS + b"5,\xff\n")
        out = tmp_path / "report.json"
        argv = ["compute", "--dataset", str(data), "--config", str(config), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "row 1, column 2: 'x' is not a number" in err
        assert not out.exists()


class TestBrokenPipe:
    """A reader that closes stdout early is not an I/O error of the tool."""

    def test_reader_closing_early_exits_0_silently(self, worked, tmp_path):
        data, config = worked
        rows = "".join(f"{i % 17},{i % 5}.25\n" for i in range(4000))
        data.write_text("health,education\n" + rows, encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        argv = ["compute", "--dataset", str(data), "--config", str(config)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "netpoverty", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        head = proc.stdout.read(10)
        proc.stdout.close()  # the report is far larger than a pipe buffer
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert head == b'{\n  "fgt_v'
        assert err == b""


#: the console script's entry, then on stderr's last line the package modules
#: whose code ran (a module registered but never read is not a plain module)
#: and whether the entry froze the collector
_ENTRY_LAUNCHER = """
import atexit, gc, json, sys, types
def report():
    ran = [m for m, v in sys.modules.items() if type(v) is types.ModuleType]
    print(json.dumps([sorted(ran), gc.get_freeze_count() > 0]), file=sys.stderr)
atexit.register(report)
from netpoverty.__main__ import main
main()
"""


class TestEntry:
    """One entry for ``python -m netpoverty`` and the console script."""

    @pytest.fixture
    def argvs(self, worked, tmp_path):
        data, config = worked
        symmetric = tmp_path / "symmetric.json"
        symmetric.write_text(
            json.dumps({"cutoffs": [10, 10], "dependence": [[1, 0.5], [0.5, 1]]}),
            encoding="utf-8",
        )
        dataset = ["--dataset", str(data), "--config", str(config)]
        return {
            "compute": ["compute", *dataset],
            "compare": ["compare", *dataset, "--row", "1", "--col", "2", "--steps", "3"],
            "bounds": ["bounds", "--config", str(config)],
            "axioms": ["axioms", "--config", str(config), "--trials", "2"],
            "implied-weights": ["implied-weights", "--config", str(symmetric)],
        }

    @staticmethod
    def run_entry(argv):
        """(exit code, modules whose code ran, frozen) of the entry on ``argv``."""
        with launch_in_session(_ENTRY_LAUNCHER, *argv) as proc:
            _, err = proc.communicate(timeout=60)
        ran, frozen = json.loads(err.decode().splitlines()[-1])
        return proc.returncode, set(ran), frozen

    @pytest.mark.parametrize("command", ["compute", "compare", "bounds"])
    def test_shared_commands_never_run_axioms_or_weights(self, argvs, command):
        code, ran, frozen = self.run_entry(argvs[command])
        assert code == 0 and frozen
        assert {"netpoverty.cli", "netpoverty.dataio"} <= ran
        assert not {"netpoverty.axioms", "netpoverty.weights"} & ran

    @pytest.mark.parametrize(
        "command, module",
        [("axioms", "netpoverty.axioms"), ("implied-weights", "netpoverty.weights")],
    )
    def test_a_command_runs_the_module_it_reads(self, argvs, command, module):
        code, ran, frozen = self.run_entry(argvs[command])
        assert code == 0 and frozen
        assert module in ran

    def test_exits_with_the_commands_code(self, argvs):
        code, _, frozen = self.run_entry([*argvs["axioms"], "--seed", "-1"])
        assert code == 1 and frozen

    @staticmethod
    def importtime(argv):
        """The modules ``python -X importtime -m netpoverty`` lists on ``argv``."""
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "netpoverty", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return {
            line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }

    @pytest.mark.parametrize("command", ["compute", "bounds"])
    def test_importtime_lists_neither_axioms_nor_weights(self, argvs, command):
        imported = self.importtime(argvs[command])
        assert {"netpoverty.cli", "netpoverty.dataio"} <= imported
        assert not {"netpoverty.axioms", "netpoverty.weights"} & imported

    def test_compute_imports_no_hashlib(self, argvs):
        # compute builds no result hash, so it never pays for OpenSSL
        imported = self.importtime(argvs["compute"])
        assert "netpoverty.aggregation" in imported
        assert not {"hashlib", "_hashlib"} & imported

    def test_main_in_process_does_not_freeze(self, argvs, capsys):
        frozen = gc.get_freeze_count()
        assert main(argvs["compute"]) == 0
        assert gc.get_freeze_count() == frozen


#: ``compute`` with two usable CPUs on any runner; with ``fail`` first, the
#: per-chunk record formatter raises in every process but the one ``compute``
#: runs in; with ``stall``, once the stream has yielded its first chunk of
#: persons, that process sleeps a minute in its next call to the formatter
_LAUNCHER = """
import os, sys, time
os.sched_getaffinity = lambda pid: {0, 1}
from netpoverty import cli, dataio
parent, records, report_text, past = os.getpid(), dataio._records, dataio._report_text, []
def failing(*args):
    if os.getpid() != parent:
        raise RuntimeError("worker fault")
    return records(*args)
def stalling(*args):
    if past and os.getpid() == parent:
        time.sleep(60)
    return records(*args)
def marking(*args):
    for i, text in enumerate(report_text(*args)):
        yield text
        if i == 1:  # the head, then the first chunk of persons
            past.append(None)
dataio._report_text = marking
dataio._records = {"ok": records, "fail": failing, "stall": stalling}[sys.argv[1]]
sys.exit(cli.main(sys.argv[2:]))
"""


_LOAD_LAUNCHER = """
import os, sys, time
os.sched_getaffinity = lambda pid: {0, 1}
from netpoverty import cli, dataio
parent, line_blocks, mark = os.getpid(), dataio._line_blocks, sys.argv[1]
def stalling(*args):
    if os.getpid() != parent:
        open(mark, "x").close()
        time.sleep(60)
    return line_blocks(*args)
dataio._FORK_BYTES = 1
dataio._line_blocks = stalling
try:
    sys.exit(cli.main(sys.argv[2:]))
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        print("a child process is left", file=sys.stderr)
"""


def stop_past_the_first_chunk(monkeypatch, stop):
    """Call ``stop()`` in this process's record formatter once the first chunk of persons is out."""
    records, report_text, past = dataio._records, dataio._report_text, []

    def marking(*args):
        for i, text in enumerate(report_text(*args)):
            yield text
            if i == 1:  # the head, then the first chunk of persons
                past.append(os.getpid())

    def stopping(*args):
        if past == [os.getpid()]:
            stop()
        return records(*args)

    monkeypatch.setattr(dataio, "_report_text", marking)
    monkeypatch.setattr(dataio, "_records", stopping)


def launch_in_session(script, *args):
    """Start ``script`` in its own session and process group, so every worker it forks is in it."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
        start_new_session=True,
    )


def assert_group_gone(proc):
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


class TestForkedCompute:
    """``compute`` on a report large enough to fork: no process outlives it."""

    @pytest.fixture
    def large(self, worked):
        data, config = worked
        # two ranges of report text, so one forked worker
        rows = "".join(f"{i % 17},{i % 5}.25\n" for i in range(40_000))
        data.write_text("health,education\n" + rows, encoding="utf-8")
        return ["compute", "--dataset", str(data), "--config", str(config)]

    @staticmethod
    def launch(mode, argv):
        return launch_in_session(_LAUNCHER, mode, *argv)

    def test_reader_closing_early_exits_0_silently(self, large):
        proc = self.launch("ok", large)
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert head == b'{\n  "fgt_v'
        assert err == b""
        assert_group_gone(proc)

    def test_report_equals_serial_report(self, large, monkeypatch, capsys):
        proc = self.launch("ok", large)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == b""
        assert_group_gone(proc)
        usable_cpus(monkeypatch, 1)  # one range, formatted here
        assert main(large) == 0
        assert out == capsys.readouterr().out.encode("utf-8")

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_worker_failure_exits_3(self, large, tmp_path, to_file):
        out = tmp_path / "r.json"
        proc = self.launch("fail", [*large, "--out", str(out)] if to_file else large)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 3
        assert_one_error_line(err.decode())
        assert not out.exists()
        assert_group_gone(proc)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_sigterm_mid_write_exits_143_and_cleans_up(self, large, tmp_path, to_file):
        # the first chunk is written, then compute stalls with its worker running
        out = tmp_path / "r.json"
        with self.launch("stall", [*large, "--out", str(out)] if to_file else large) as proc:
            try:
                if to_file:
                    deadline = time.monotonic() + 60
                    while not (out.exists() and out.stat().st_size > 0):
                        assert time.monotonic() < deadline and proc.poll() is None
                        time.sleep(0.01)
                else:
                    assert proc.stdout.read(1 << 16)[:10] == b'{\n  "fgt_v'
                proc.send_signal(signal.SIGTERM)
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()  # the pipes are closed on every path as the block ends
        assert proc.returncode == 143
        assert err == b""
        assert not out.exists()
        assert_group_gone(proc)

    def test_sigterm_mid_load_exits_143_and_cleans_up(self, worked, tmp_path):
        # the dataset's second range is parsed by a worker, which stalls
        data, config = worked
        out, mark = tmp_path / "r.json", tmp_path / "parsing"
        argv = ["compute", "--dataset", str(data), "--config", str(config), "--out", str(out)]
        with launch_in_session(_LOAD_LAUNCHER, str(mark), *argv) as proc:
            try:
                deadline = time.monotonic() + 60
                while not mark.exists():
                    assert time.monotonic() < deadline and proc.poll() is None
                    time.sleep(0.01)
                proc.send_signal(signal.SIGTERM)
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()  # the pipes are closed on every path as the block ends
        assert proc.returncode == 143
        assert err == b""
        assert not out.exists()
        assert_group_gone(proc)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_worker_failure_in_process(self, worked, small_ranges, monkeypatch, capsys, to_file):
        data, config = worked
        data.write_text("health,education\n" + "5,10\n3,4\n" * 100, encoding="utf-8")
        usable_cpus(monkeypatch, 2)
        fail_in_workers(monkeypatch)
        out = data.parent / "r.json"
        argv = ["compute", "--dataset", str(data), "--config", str(config)]
        assert main([*argv, "--out", str(out)] if to_file else argv) == 3
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()
        assert len(small_ranges) == 1


class TestSigterm:
    """While ``main`` runs, SIGTERM ends it in SystemExit(143); then the old handler is back."""

    @staticmethod
    def own_handler():
        """Set a caller's SIGTERM handler, which fails the test if it runs; it and the old one."""

        def handler(signum, frame):
            raise AssertionError("the caller's handler ran")

        return handler, signal.signal(signal.SIGTERM, handler)

    @pytest.mark.parametrize(
        "where", ["formatting-stdout", "formatting-out-file", "writing-stdout"]
    )
    def test_sigterm_mid_write(self, worked, small_ranges, monkeypatch, capsys, where):
        # SIGTERM once the first chunk of persons is written: while the second is
        # formatted, or while the stream waits, suspended, for a write to stdout
        data, config = worked
        data.write_text("health,education\n" + "5,10\n3,4\n" * 100, encoding="utf-8")
        usable_cpus(monkeypatch, 2)

        class TerminatingStdout(io.StringIO):
            def write(self, text):
                if self.tell():  # past the head
                    os.kill(os.getpid(), signal.SIGTERM)
                return super().write(text)

        if where == "writing-stdout":
            monkeypatch.setattr(sys, "stdout", TerminatingStdout())
        else:
            stop_past_the_first_chunk(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGTERM))
        to_file = where.endswith("out-file")
        handler, previous = self.own_handler()
        out = data.parent / "r.json"
        argv = ["compute", "--dataset", str(data), "--config", str(config)]
        try:
            with pytest.raises(SystemExit) as exited:
                main([*argv, "--out", str(out)] if to_file else argv)
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert exited.value.code == 143
        assert not out.exists()
        assert capsys.readouterr().err == ""
        assert len(small_ranges) == 1
        assert_reaped(small_ranges)

    def test_handler_restored_after_a_run(self, worked, capsys):
        data, config = worked
        handler, previous = self.own_handler()
        try:
            assert main(["compute", "--dataset", str(data), "--config", str(config)]) == 0
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_off_the_main_thread_no_handler_is_set(self, worked, capsys):
        data, config = worked
        before, codes = signal.getsignal(signal.SIGTERM), []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(["compute", "--dataset", str(data), "--config", str(config)])
            )
        )
        thread.start()
        thread.join()
        assert codes == [0]
        assert signal.getsignal(signal.SIGTERM) is before


class TestConfigBoundary:
    """Malformed config fields end in one error line and exit code 1."""

    @pytest.mark.parametrize(
        "override",
        [
            {"alpha": True},
            {"alpha": [1]},
            {"alpha": 10**400},
            {"k": "1"},
            {"k": {"mode": "absolute", "value": None}},
            {"dependence": [[1, 0], [0]]},
            {"cutoffs": [[5, 5], [5, 5]]},
            {"weights": [[1, 1]]},
            {"weights": [1e308, 1e308]},  # positive and finite, but their sum overflows
            {"dependance": [[1, 1], [1, 1]], "weigths": [1.5, 0.5]},
            {"k": {"mode": "fraction", "value": 0.5, "valu": 0.9}},
        ],
    )
    def test_rejected_without_traceback(self, worked, tmp_path, capsys, override):
        data, _ = worked
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(WORKED_CONFIG, **override)), encoding="utf-8")
        assert main(["compute", "--dataset", str(data), "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"cutoffs": [10, 10], "alpha": 1, "alpha": 2, "k": 1}', "config field 'alpha'"),
            (
                '{"cutoffs": [10, 10], "alpha": 1, '
                '"k": {"mode": "fraction", "value": 0.5, "value": 1.0}}',
                "k field 'value'",
            ),
        ],
        ids=["top-level", "inside-k"],
    )
    @pytest.mark.parametrize("command", ["compute", "bounds"])
    def test_repeated_field_named(self, worked, tmp_path, capsys, command, text, named):
        data, _ = worked
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        inputs = ["--dataset", str(data)] if command == "compute" else []
        assert main([command, *inputs, "--config", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: duplicate {named}\n"

    def test_byte_order_mark_is_ignored(self, worked, tmp_path, capsys):
        data, config = worked
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        outputs = []
        for path in (config, marked):
            assert main(["compute", "--dataset", str(data), "--config", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "field, command, hint",
        [
            ("alpha", "compute", "--alpha"),
            ("k", "axioms", "--k / --k-fraction to compute or compare"),
        ],
        ids=["compute-no-alpha", "axioms-no-k"],
    )
    def test_missing_methodology_field_names_path(
        self, worked, tmp_path, capsys, field, command, hint
    ):
        data, _ = worked
        bad = tmp_path / "bad.json"
        doc = {key: v for key, v in WORKED_CONFIG.items() if key != field}
        bad.write_text(json.dumps(doc), encoding="utf-8")
        inputs = ["--dataset", str(data)] if command == "compute" else []
        assert main([command, *inputs, "--config", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: config field '{field}' is required (or pass {hint})\n"
        )


class TestUsage:
    """Usage errors end like validation errors: one error line, exit 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--dataset", "d.csv", "--config", "c.json", "--alpha", "abc"],
            ["compute", "--config", "c.json"],
            [],
            ["frobnicate"],
        ],
        ids=["alpha-abc", "missing-dataset", "no-subcommand", "unknown-subcommand"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert_one_error_line(capsys.readouterr().err)

    # every numeric flag and its type; BASE makes the rest of its command valid
    NUMERIC_FLAGS = [
        *((command, flag, float) for command in ("compute", "compare")
          for flag in ("--alpha", "--k", "--k-fraction")),
        *(("axioms", flag, parse) for flag, parse in
          (("--alpha", float), ("--trials", int), ("--seed", int))),
        *(("compare", flag, int) for flag in ("--row", "--col", "--steps")),
    ]
    BASE = {
        "compute": ["compute", "--dataset", "DATA"],
        "axioms": ["axioms", "--trials", "2"],
        "compare": ["compare", "--dataset", "DATA", "--row", "2", "--col", "1", "--steps", "3"],
    }

    def argv(self, worked, command, flag, text):
        data, config = worked
        argv = [str(data) if a == "DATA" else a for a in self.BASE[command]]
        return [*argv, "--config", str(config), flag, text]

    @pytest.mark.parametrize("text", ["1_0", "\u0661"], ids=["underscore", "arabic-indic"])
    @pytest.mark.parametrize("command, flag, parse", NUMERIC_FLAGS)
    def test_numeral_outside_the_dataset_format_exits_1(
        self, worked, tmp_path, capsys, command, flag, parse, text
    ):
        # float() and int() read both as 10 and 1; a dataset cell may hold neither
        out = tmp_path / "out.txt"
        assert main([*self.argv(worked, command, flag, text), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err == (
            f"error: netpoverty {command}: argument {flag}: "
            f"invalid {parse.__name__} value: {text!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, parse", NUMERIC_FLAGS)
    def test_ascii_numerals_still_parse(self, worked, command, flag, parse):
        for text in [".5", "1e0", " 2 "] if parse is float else [" 2 ", "3"]:
            args = build_parser().parse_args(self.argv(worked, command, flag, text))
            parsed = getattr(args, flag[2:].replace("-", "_"))
            assert type(parsed) is parse and parsed == parse(text)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compute", "--help"])
        assert info.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestOutput:
    """Every subcommand writes to --out exactly what it prints to stdout."""

    @pytest.mark.parametrize(
        "command",
        [
            ["compute", "--dataset", "DATA"],
            ["bounds"],
            ["implied-weights"],
            ["axioms", "--trials", "5"],
            ["compare", "--dataset", "DATA", "--row", "2", "--col", "1", "--steps", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_file_matches_stdout(self, tmp_path, capsys, command):
        data = tmp_path / "data.csv"
        data.write_text("health,education\n5,10\n10,10\n", encoding="utf-8")
        config = tmp_path / "config.json"
        symmetric = dict(WORKED_CONFIG, dependence=[[1.0, 0.5], [0.5, 1.0]])
        config.write_text(json.dumps(symmetric), encoding="utf-8")
        argv = [str(data) if a == "DATA" else a for a in command]
        argv += ["--config", str(config)]
        code = main(argv)
        printed = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert printed and out.read_bytes() == printed.encode("utf-8")


class TestBounds:
    def test_bounds_fields_equal_report(self, worked, tmp_path, capsys):
        data, _ = worked
        config = tmp_path / "weighted.json"
        config.write_text(json.dumps(dict(WORKED_CONFIG, weights=[1.2, 0.8])), encoding="utf-8")
        assert main(["bounds", "--config", str(config)]) == 0
        bounds = json.loads(capsys.readouterr().out)
        assert main(["compute", "--dataset", str(data), "--config", str(config)]) == 0
        report = json.loads(capsys.readouterr().out)
        for key in ("d_bar", "d_under", "d_tilde", "deltas"):
            assert bounds[key] == report[key]

    def test_bounds_payload(self, worked, capsys):
        _, config = worked
        assert main(["bounds", "--config", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d_bar"] == 2.5
        assert payload["d_under"] == 1.0
        assert payload["d_tilde"] == 2.5
        assert payload["deltas"] == [1.0, 1.5]
        assert payload["sigma"] == 2.5
        assert payload["sigma_cols"] == [1.0, 1.5]
        assert payload["attainable_scores"] == [0.0, 1.0, 1.5, 2.5]

    def test_attainable_scores_null_past_the_enumeration_limit(self, tmp_path, capsys):
        d = ENUMERATION_LIMIT + 1
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"cutoffs": [10] * d, "alpha": 1}), encoding="utf-8")
        assert main(["bounds", "--config", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attainable_scores"] is None
        assert payload["d_bar"] == d


class TestImpliedWeights:
    def test_symmetric_structure(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "cutoffs": [10, 10, 10],
                    "alpha": 1,
                    "dependence": [[1, 0.5, 0.5], [0.5, 1, 0], [0.5, 0, 1]],
                }
            ),
            encoding="utf-8",
        )
        assert main(["implied-weights", "--config", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"] == [1.125, 0.9375, 0.9375]
        assert payload["d_bar"] == 4.0

    def test_asymmetric_structure_exits_0(self, worked, capsys):
        # d * jump / upper: jumps 1 and 1.5 from the column sums, upper 2.5
        _, config = worked
        assert main(["implied-weights", "--config", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"] == [0.8, 1.2]
        assert sum(payload["weights"]) == 2.0
        assert payload["deltas"] == [1.0, 1.5]
        assert payload["d_bar"] == 2.5


class TestAxioms:
    def test_clean_run_exits_0(self, worked, capsys):
        _, config = worked
        code = main(
            ["axioms", "--config", str(config), "--trials", "5", "--seed", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 12
        assert all(r["status"] in ("pass", "not_covered") for r in records)

    def test_negative_seed_exits_1(self, worked, capsys):
        _, config = worked
        code = main(["axioms", "--config", str(config), "--trials", "5", "--seed", "-1"])
        assert code == 1
        assert_one_error_line(capsys.readouterr().err)

    def test_inconsistent_methodology_reports_violation(self, tmp_path, capsys):
        # asymmetric structure with non-uniform weights: the unit endpoint
        # genuinely fails, the suite must say so and exit 2
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "cutoffs": [10, 10],
                    "alpha": 1,
                    "k": 1.0,
                    "dependence": [[1, 0.8], [0, 1]],
                    "weights": [1.5, 0.5],
                }
            ),
            encoding="utf-8",
        )
        code = main(["axioms", "--config", str(config), "--trials", "5", "--seed", "3"])
        assert code == 2
        records = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        by_name = {r["axiom"]: r for r in records}
        assert by_name["normalization"]["status"] == "fail"


#: ``axioms`` with as many usable CPUs as the first argument says, on any runner;
#: the process ``main`` runs in creates the file the second argument names as it
#: starts its own share of the trials, by when every worker is forked
_SUITE_LAUNCHER = """
import os, sys
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
from netpoverty import axioms, cli
parent, mark, first = os.getpid(), sys.argv[2], axioms._TRIALS["decomposability"]
def marking(*args):
    if os.getpid() == parent and not os.path.exists(mark):
        open(mark, "x").close()
    return first(*args)
axioms._TRIALS["decomposability"] = marking
sys.exit(cli.main(sys.argv[3:]))
"""


class TestForkedAxioms:
    """``axioms`` on two CPUs writes the one-CPU output, and no worker outlives it."""

    def test_output_equals_one_cpu_output(self, worked, tmp_path):
        argv = ["axioms", "--config", str(worked[1]), "--trials", "200", "--seed", "5"]
        outputs = []
        for cpus in (1, 2):
            mark = tmp_path / str(cpus)
            with launch_in_session(_SUITE_LAUNCHER, str(cpus), str(mark), *argv) as proc:
                out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert err == b""
            assert_group_gone(proc)
            outputs.append(out)
        assert outputs[0].count(b"\n") == 12
        assert outputs[1] == outputs[0]

    def test_sigterm_mid_suite_exits_143_and_reaps(self, worked, tmp_path):
        mark = tmp_path / "running"
        argv = ["axioms", "--config", str(worked[1]), "--trials", "2000"]
        with launch_in_session(_SUITE_LAUNCHER, "2", str(mark), *argv) as proc:
            try:
                deadline = time.monotonic() + 60
                while not mark.exists():
                    assert time.monotonic() < deadline and proc.poll() is None
                    time.sleep(0.01)
                proc.send_signal(signal.SIGTERM)
                out, err = proc.communicate(timeout=60)
            finally:
                proc.kill()  # the pipes are closed on every path as the block ends
        assert proc.returncode == 143
        assert out == err == b""
        assert_group_gone(proc)


class TestCompare:
    def test_one_step_exits_1(self, worked, capsys):
        data, config = worked
        argv = ["compare", "--dataset", str(data), "--config", str(config),
                "--row", "2", "--col", "1", "--steps", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err == "error: --steps must be at least 2\n"

    def test_sweep_monotone_naive(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b\n5,8\n12,15\n", encoding="utf-8")
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"cutoffs": [10, 10], "alpha": 1, "k": 1}), encoding="utf-8"
        )
        code = main(
            [
                "compare",
                "--dataset", str(data),
                "--config", str(config),
                "--row", "2",
                "--col", "1",
            ]
        )
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 11
        numerators = [r["naive_numerator"] for r in records]
        assert all(b > a for a, b in zip(numerators, numerators[1:]))
        assert all(0.0 <= r["fgt_adjusted"] <= 1.0 for r in records)

    def test_row_col_validation(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b\n5,8\n", encoding="utf-8")
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"cutoffs": [10, 10], "alpha": 1, "k": 1}), encoding="utf-8"
        )
        code = main(
            [
                "compare",
                "--dataset", str(data),
                "--config", str(config),
                "--row", "1",
                "--col", "1",
            ]
        )
        assert code == 1


@pytest.mark.parametrize(
    "argv, naive_values",
    [
        (["compute", "--diagnostic-naive"], lambda out: [out["naive_diagnostic"]["value"]]),
        (
            ["compare", "--row", "3", "--col", "2", "--k-fraction", "0.9"],
            lambda out: [r["fgt_naive"] for r in out],
        ),
    ],
    ids=["compute", "compare"],
)
def test_naive_at_k_above_unweighted_ceiling(tmp_path, capsys, argv, naive_values):
    # d_tilde = 5 and d_bar = 4: the methodology's k is valid, the naive counts never reach it
    data = tmp_path / "data.csv"
    data.write_text("a,b,c\n0.5,0.5,2\n2,2,2\n", encoding="utf-8")
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps(
            {
                "cutoffs": [1, 1, 1],
                "alpha": 1,
                "k": {"mode": "fraction", "value": 1.0},
                "dependence": [[1, 0, 0], [1, 1, 0], [1, 0, 1]],
                "weights": [2, 0.5, 0.5],
            }
        ),
        encoding="utf-8",
    )
    assert main([*argv, "--dataset", str(data), "--config", str(config)]) == 0
    values = naive_values(json.loads(capsys.readouterr().out))
    assert values and all(v == 0.0 for v in values)


class TestComputeFuzz:
    """Fuzzed dataset and config bytes: exit 0, 1 or 3, at most one error line."""

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.binary() | _CSV | st.just(b"health,education\n5,10\n10,10\n"),
        config=st.binary()
        | _JSON.map(lambda doc: json.dumps(doc).encode())
        | st.just(json.dumps(WORKED_CONFIG).encode()),
    )
    def test_compute_never_escapes(self, tmp_path_factory, data, config):
        tmp = tmp_path_factory.mktemp("fuzz")
        data_path, config_path = tmp / "data.csv", tmp / "config.json"
        data_path.write_bytes(data)
        config_path.write_bytes(config)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(
                ["compute", "--dataset", str(data_path), "--config", str(config_path)]
            )
        assert code in (0, 1, 3)
        assert "Traceback" not in err.getvalue()
        assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1
