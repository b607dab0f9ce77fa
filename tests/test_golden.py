"""Golden corpus: the sha256 of every deterministic command output.

The runs cover detection (logistic regression on SEA, naive Bayes on
Agrawal), attribution tracking under each recompute policy and once
without the oracle, and the benchmark with both detectors. Refactors
must leave every output byte-identical. ``golden/digests.json`` holds
the digests, and ``golden/summaries.json`` per case the counts its
outputs hold (``summarize``), so that a change shows what moved, not
only that something did. A deliberate output change rewrites both with

    PYTHONPATH=src python3 tests/test_golden.py [CASE ...]

and is recorded in CHANGES.md together with its reason and the summary
diff. Named cases replace only their own entries (a key of a file the
case no longer writes goes) and leave every other one as it is, so a new
case can be added without accepting changes elsewhere; an unknown name
is an error. With no names, every entry is rewritten. Each rewritten case
prints the digest keys it added, removed or changed, and every summary
field that moved, old -> new.
"""

import csv
import hashlib
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from driftscope.cli import main as cli_main

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"
SUMMARIES = DIGESTS.with_name("summaries.json")
# Paths are relative to the run directory: bench reports name their stream.
STREAM = "gen/stream.csv"
GENERATE = ["generate", "--kind", "sea", "--length", "3000", "--positions", "1500",
            "--seed", "3", "--out", "gen"]
DETECT_FILES = ("alerts.jsonl", "tree.jsonl", "summary.json")
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
    # long enough for hundreds of leaf splits with replayed windows, under the churning max_age 100
    "detect-agrawal-gnb-long": (
        ["detect", "--kind", "agrawal", "--model", "gnb", "--length", "10000",
         "--positions", "2500", "5000", "7500", "--seed", "5", "--max-age", "100"],
        DETECT_FILES,
    ),
    "track-cdleeds": ([*TRACK, "--policy", "cdleeds"], TRACK_FILES),
    "track-never": ([*TRACK, "--policy", "never"], TRACK_FILES),
    "track-cdleeds-no-oracle": ([*TRACK, "--policy", "cdleeds", "--no-oracle"], TRACK_FILES),
    # a deep tree (over 63 nodes, hundreds of splits and prunes at max_age 100) under 100 tracked rows
    "track-deep": (
        [*TRACK, "--sample-size", "100", "--sample-prefix", "1000", "--window", "16",
         "--max-depth", "8", "--max-age", "100"],
        TRACK_FILES,
    ),
    "bench": (
        ["bench", "--stream", STREAM, "--detectors", "cdleeds,ddm", "--warmup", "200"],
        BENCH_FILES,
    ),
}


def summarize(out: Path) -> dict:
    """The counts a case's outputs in ``out`` hold: alerts, tree size, attribution refreshes, bench delays."""
    summary = {}
    if (out / "alerts.jsonl").exists():
        alerts = [json.loads(line) for line in (out / "alerts.jsonl").read_text().splitlines()]
        steps = [a["t"] for a in alerts]
        summary["alerts"] = Counter(f"{a['scope']}/{a['kind']}" for a in alerts)
        summary["first_last_alert_step"] = [min(steps), max(steps)] if steps else None
        summary["global_alert_steps"] = [a["t"] for a in alerts if a["scope"] == "global"]
    if (out / "tree.jsonl").exists():
        rows = map(json.loads, (out / "tree.jsonl").read_text().splitlines())
        summary["node_count_changes"] = [[row["t"], row["node_count"]] for row in rows]
    if (out / "attributions.csv").exists():
        with open(out / "attributions.csv", newline="") as f:
            summary["attribution_rows"] = Counter(row["reason"] for row in csv.DictReader(f))
    if (out / "report.json").exists():
        summary["delays"] = {row["detector"]: row["delays"] for row in json.loads((out / "report.json").read_text())}
    return summary


def run_case(name: str, workdir: Path) -> tuple[dict[str, str], dict]:
    """Run one case inside ``workdir``; returns ``{case/file: sha256}`` and the case's summary."""
    argv, files = CASES[name]
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        if not Path(STREAM).exists():
            assert cli_main(GENERATE) == 0
        assert cli_main([*argv, "--out", name]) == 0
        digests = {
            f"{name}/{file_name}": hashlib.sha256((Path(name) / file_name).read_bytes()).hexdigest()
            for file_name in files
        }
        return digests, summarize(Path(name))
    finally:
        os.chdir(previous)


def write_summaries(summaries: dict) -> None:
    """``summaries`` as JSON with one line per case and field, so a regeneration diffs field by field."""
    cases = [
        f"  {json.dumps(case)}: {{\n"
        + ",\n".join(f"    {json.dumps(key)}: {json.dumps(fields[key], sort_keys=True)}" for key in sorted(fields))
        + "\n  }"
        for case, fields in sorted(summaries.items())
    ]
    SUMMARIES.write_text("{\n" + ",\n".join(cases) + "\n}\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_golden(name, workdir, capsys):
    digests, summary = run_case(name, workdir)
    capsys.readouterr()  # drop the commands' own stdout
    assert summary == json.loads(SUMMARIES.read_text())[name]  # checked first: its diff shows what moved
    golden = json.loads(DIGESTS.read_text())
    assert digests == {key: golden[key] for key in digests}


def test_golden_covers_every_case():
    golden = json.loads(DIGESTS.read_text())
    expected = {f"{name}/{f}" for name, (_, files) in CASES.items() for f in files}
    assert set(golden) == expected
    assert set(json.loads(SUMMARIES.read_text())) == set(CASES)


def _case_of(key: str) -> str:
    return key.split("/", 1)[0]


def _as_json(value):
    return json.loads(json.dumps(value))  # a Counter reads as the dict it is written as


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}; expected some of {', '.join(CASES)}")
    old_digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    old_summaries = json.loads(SUMMARIES.read_text()) if SUMMARIES.exists() else {}
    # a named case's old entries go, so a file it no longer writes leaves no key behind
    digests = {k: v for k, v in old_digests.items() if _case_of(k) not in names} if sys.argv[1:] else {}
    summaries = {k: v for k, v in old_summaries.items() if k not in names} if sys.argv[1:] else {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            case_digests, summaries[case] = run_case(case, Path(tmp))
            digests.update(case_digests)
            before = {k: v for k, v in old_digests.items() if _case_of(k) == case}
            for key in sorted(before.keys() | case_digests.keys()):
                if key not in case_digests:
                    print(f"{case}: removed {key}")
                elif key not in before:
                    print(f"{case}: added {key}")
                elif before[key] != case_digests[key]:
                    print(f"{case}: changed {key}")
            old, new = old_summaries.get(case, {}), _as_json(summaries[case])
            for field in sorted(old.keys() | new.keys()):
                if old.get(field) != new.get(field):
                    print(f"{case}: summary {field}: {json.dumps(old.get(field))} -> {json.dumps(new.get(field))}")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    write_summaries(summaries)
    print(f"wrote {len(names)} case(s) to {DIGESTS}", file=sys.stderr)
