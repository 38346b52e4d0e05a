"""The README's examples run as written."""

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def block(heading, language=""):
    """The text of the first fenced ``language`` block after ``heading``."""
    rest = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"^```{language}\n(.*?)^```$", rest, re.M | re.S).group(1)


def test_quickstart_prints_what_its_comments_say():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block("## Quickstart", "python"), {})
    assert out.getvalue().split() == ["0.1", "0.5"]


def test_compute_on_the_dataset_and_config_examples(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text(block("### Dataset format"), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(block("### Config format", "json"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "netpoverty", "compute", "--dataset", str(data), "--config", str(config)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)  # one JSON document, nothing after it
    assert [p["id"] for p in report["per_person"]] == ["p1", "p2"]
