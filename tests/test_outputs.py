"""Every default output is byte-identical to the recorded reference digests.

The digests in bench/reference.json were taken from scripts/make_figures.py
(each figure as CSV, fig8 also as JSON), from the stdout of
scripts/reproduce_summary.py and from a catalogue of CLI invocations (exit
code, stdout and the --out file); a refactor that changes one byte of any of
them fails here. The JSON form of the other figures, which the benchmark
does not record, is pinned in JSON_DIGESTS below.
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

# sha256 of emit(build_figure(fid), "json") for the figures whose JSON
# bench/reference.json leaves out, taken at commit 35d0796.
JSON_DIGESTS = {
    "fig3.json": "929f8dc453c570c3a50eee40ba0a3a8a67419c5dc8102cf37b1a89c600d740fe",
    "fig4.json": "4130094ce3c6cbc3607a3bb4eb2aa5e3291626e0dc6d4b08390f3311c2c320aa",
    "fig5.json": "0661443975319f1e282ae1c53874adeb5997f8a20456407a5547e93814b726e5",
    "fig6.json": "106b5db2ffaed9a9bee0c30eb32fee1ebe1a918256a6baf9e44bdacec65827af",
    "fig7.json": "ee16c5c1f32e51463add2dbb29f9f5b24bf1d147107004dd62f08d50db62104f",
    "fig9.json": "cd027adaba08f30fc71ee1fe9a717c3a7477760331b9d0eee3a1135331327276",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_figure_bytes_match_reference(fid):
    dataset = build_figure(fid)
    expected = {**REFERENCE, **JSON_DIGESTS}
    for fmt in ("csv", "json"):
        assert sha256(emit(dataset, fmt)) == expected[f"{fid}.{fmt}"], f"{fid}.{fmt}"


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
