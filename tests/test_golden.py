"""Golden corpus: the sha256 of every deterministic command output.

The runs cover detection (logistic regression on SEA, naive Bayes on
Agrawal), attribution tracking under each recompute policy and once
without the oracle, and the benchmark with both detectors. Refactors
must leave every output byte-identical. ``golden/digests.json`` holds
the digests; a deliberate output change rewrites it with

    PYTHONPATH=src python3 tests/test_golden.py

and is recorded in CHANGES.md together with its reason.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from driftscope.cli import main as cli_main

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"
# Paths are relative to the run directory: bench reports name their stream.
STREAM = "gen/stream.csv"
GENERATE = ["generate", "--kind", "sea", "--length", "3000", "--positions", "1500",
            "--seed", "3", "--out", "gen"]
DETECT_FILES = ("alerts.jsonl", "stats.jsonl", "summary.json")
TRACK_FILES = ("attributions.csv", "summary.json")
BENCH_FILES = ("report.csv", "report.json")
TRACK = ["track-attributions", "--input", STREAM, "--sample-size", "20",
         "--sample-prefix", "500", "--seed", "4"]

CASES = {
    "detect-sea": (
        ["detect", "--kind", "sea", "--length", "3000", "--positions", "1500", "--seed", "3"],
        DETECT_FILES,
    ),
    "detect-agrawal-gnb": (
        ["detect", "--kind", "agrawal", "--model", "gnb", "--length", "3000",
         "--positions", "1500", "--seed", "5"],
        DETECT_FILES,
    ),
    "track-cdleeds": ([*TRACK, "--policy", "cdleeds"], TRACK_FILES),
    "track-always": ([*TRACK, "--policy", "always"], TRACK_FILES),
    "track-never": ([*TRACK, "--policy", "never"], TRACK_FILES),
    "track-cdleeds-no-oracle": ([*TRACK, "--policy", "cdleeds", "--no-oracle"], TRACK_FILES),
    "bench": (
        ["bench", "--stream", STREAM, "--detectors", "cdleeds,ddm", "--warmup", "200"],
        BENCH_FILES,
    ),
}


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run one case inside ``workdir``; returns ``{case/file: sha256}``."""
    argv, files = CASES[name]
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        if not Path(STREAM).exists():
            assert cli_main(GENERATE) == 0
        assert cli_main([*argv, "--out", name]) == 0
        return {
            f"{name}/{file_name}": hashlib.sha256((Path(name) / file_name).read_bytes()).hexdigest()
            for file_name in files
        }
    finally:
        os.chdir(previous)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_golden(name, workdir, capsys):
    digests = run_case(name, workdir)
    capsys.readouterr()  # drop the commands' own stdout
    golden = json.loads(DIGESTS.read_text())
    assert digests == {key: golden[key] for key in digests}


def test_golden_covers_every_case():
    golden = json.loads(DIGESTS.read_text())
    expected = {f"{name}/{f}" for name, (_, files) in CASES.items() for f in files}
    assert set(golden) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for case in CASES:
            digests.update(run_case(case, Path(tmp)))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
