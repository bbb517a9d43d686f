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
import math
import random
from pathlib import Path

import pytest

from grating_orders import cli
from grating_orders.diffraction import GratingSpec, order_alpha
from grating_orders.figures import FIGURE_IDS, build_figure, emit
from grating_orders.orders import CURVE_KINDS, curve, order_table

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


# sha256 over the abscissa and ordinate bytes of the 800 seeded curves of
# seeded_curves(), taken at commit afd2d6c and re-taken when the tie's cap
# went from pi sigma / 4 to pi sigma / 8, which changed 25,942 ordinates of
# the 120 curves at sigma < 2.45e-9 and no abscissa.
SEEDED_CURVES_DIGEST = "6c6e7738fd5370f7f3a8a73cecb6125145f43982e3063595e981b67143cd80b3"


def seeded_curves(count=800, seed=18):
    """Seeded random curves over the four kinds, sigma log-uniform in [1e-10, 0.9].

    Each range starts at a log-uniform continuum order in [1, 1e6] (a quarter of
    them exactly at an order position), spans up to 499 order spacings and holds
    2..300 grid samples, so a curve stays inside the order bound and holds at
    most 1,300 points with its edge pairs.
    """
    rng = random.Random(seed)
    for i in range(count):
        sigma = 10.0 ** rng.uniform(-10.0, math.log10(0.9))
        start = 10.0 ** rng.uniform(0.0, 6.0)
        if rng.random() < 0.25:
            start = float(int(start))
        lo = order_alpha(start, sigma)
        hi = lo + order_alpha(rng.uniform(1e-3, 499.0), sigma)
        yield curve(CURVE_KINDS[i % 4], sigma, (lo, hi), rng.randint(2, 300))


def test_seeded_curve_bytes_match_reference():
    digest = hashlib.sha256()
    for c in seeded_curves():
        digest.update(c.abscissa.tobytes())
        digest.update(c.ordinate.tobytes())
    assert digest.hexdigest() == SEEDED_CURVES_DIGEST


# sha256 over the columns and totals of the 200 seeded tables of
# seeded_tables(), taken at commit 85b5a2a.
SEEDED_TABLES_DIGEST = "3dda783e10e9ceae919264a6775cb1bc805114bdb0ecb85e503c733a1d4b737b"


def seeded_tables(count=200, seed=19):
    """Seeded order tables, built as ``table --j-equiv`` builds them.

    sigma is one of 1/2, 1/3, 0.3 and 1/8, or log-uniform in [1e-3, 0.9]; the
    j-equivalent is log-uniform from the narrowest admitted slit (w = lambda)
    up to 1e5, and a quarter of the tables sit at a j- or j+ threshold.
    """
    rng = random.Random(seed)
    for _ in range(count):
        sigma = rng.choice([1 / 2, 1 / 3, 0.3, 1 / 8, 10.0 ** rng.uniform(-3.0, math.log10(0.9))])
        j_equiv = 10.0 ** rng.uniform(math.log10(1.0 / sigma) + 1e-9, 5.0)
        if rng.random() < 0.25:
            j_equiv = cli.parse_j_equiv(f"{int(j_equiv) + 1}{rng.choice('-+')}")
        at = order_alpha(j_equiv, sigma)
        yield order_table(GratingSpec.from_truncation(at, 633.0, sigma))


def test_seeded_table_bytes_match_reference():
    # Each total is also the fsum over the signed orders -n..n.
    digest = hashlib.sha256()
    for t in seeded_tables():
        n = len(t.p_rj) - 1
        assert t.p_r == math.fsum(t.p_rj[abs(j)] for j in range(-n, n + 1))
        assert t.e_r == math.fsum(t.e_rj[abs(j)] for j in range(-n, n + 1))
        for column in (t.p_rj, t.e_rj, t.omega_j):
            digest.update(column.tobytes())
        digest.update(repr((t.p_r, t.e_r, t.omega)).encode())
    assert digest.hexdigest() == SEEDED_TABLES_DIGEST
