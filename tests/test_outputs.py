"""Every default output is byte-identical to the recorded reference digests.

The digests in bench/reference.json were taken from scripts/make_figures.py
(each figure as CSV, fig8 also as JSON), from the stdout of
scripts/reproduce_summary.py and from a catalogue of CLI invocations (exit
code, stdout and the --out file); a refactor that changes one byte of any of
them fails here.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from grating_orders import cli
from grating_orders.figures import FIGURE_IDS, build_figure, emit

ROOT = Path(__file__).resolve().parents[1]
REFERENCES = json.loads((ROOT / "bench" / "reference.json").read_text())
REFERENCE = REFERENCES["paper-repro"]
CLI_REFERENCE = REFERENCES["cli"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_figure_bytes_match_reference(fid):
    dataset = build_figure(fid)
    formats = ("csv", "json") if fid == "fig8" else ("csv",)
    for fmt in formats:
        assert sha256(emit(dataset, fmt)) == REFERENCE[f"{fid}.{fmt}"], f"{fid}.{fmt}"


def test_summary_stdout_matches_reference(capsys):
    spec = importlib.util.spec_from_file_location(
        "reproduce_summary", ROOT / "scripts" / "reproduce_summary.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    assert sha256(capsys.readouterr().out.encode()) == REFERENCE["summary"]


@pytest.mark.parametrize("key", sorted(CLI_REFERENCE))
def test_cli_bytes_match_reference(key, tmp_path, monkeypatch, capsys):
    # A reference with no points is a rejected invocation, exit code 2.
    expected = CLI_REFERENCE[key]
    monkeypatch.chdir(tmp_path)
    try:
        code = cli.main(key.split())
    except SystemExit as exc:
        code = exc.code
    assert code == (2 if expected["points"] == 0 else 0)
    assert sha256(capsys.readouterr().out.encode()) == expected["stdout"]
    written = sorted(tmp_path.iterdir())
    if expected["file"] is None:
        assert written == []
    else:
        assert [sha256(p.read_bytes()) for p in written] == [expected["file"]]
