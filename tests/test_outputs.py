"""Every default output is byte-identical to the recorded reference digests.

The digests in bench/reference.json were taken from scripts/make_figures.py
(each figure as CSV, fig8 also as JSON) and from the stdout of
scripts/reproduce_summary.py; a refactor that changes one byte of either
fails here.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from grating_orders.figures import FIGURE_IDS, build_figure, emit

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())["paper-repro"]


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
