"""Golden answers: the report corpus against its committed sha256 manifest.

`scripts/report_corpus.py` runs the CLI over a fixed corpus of requests and
writes every stdout, stderr, exit code, --out report and --csv export, then
one record per answer of the benchmark's traffic at seeds 1-3 (under
`answers/`).  Those records also depend on the request generator of
`perfbench/workloads.py` and on what it takes from `perfbench/oracle.py`, so
a change to either, like a change that alters an answer, regenerates the
manifest with

    PYTHONPATH=src python scripts/report_corpus.py --manifest tests/golden/corpus.sha256

and the manifest's diff is the list of changed runs and answers.  The
digests tie the answers to this platform's libm; on another platform a
mismatch is first a libm question.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "corpus.sha256"
SHOWN = 20  # paths listed per kind of difference


def digests(text: str) -> dict[str, str]:
    """{relative path: digest} of sha256sum lines."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in text.splitlines())}


def listing(kind: str, paths: list[str], corpus: Path) -> str:
    """The total and the first SHOWN paths; a regenerated answer also shows its argv."""
    lines = [f"{len(paths)} {kind}"]
    for path in paths[:SHOWN]:
        argv = ""
        if path.startswith("answers/") and (corpus / path).exists():  # a removed answer has no record
            argv = ": " + " ".join(json.loads((corpus / path).read_text(encoding="utf-8"))["argv"])
        lines.append(f"  {path}{argv}")
    if len(paths) > SHOWN:
        lines.append(f"  ... and {len(paths) - SHOWN} more")
    return "\n".join(lines)


def test_report_corpus_matches_the_golden_manifest(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    manifest, corpus = tmp_path / "corpus.sha256", tmp_path / "corpus"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_corpus.py"), str(corpus),
                           "--manifest", str(manifest)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got, want = digests(manifest.read_text(encoding="utf-8")), digests(GOLDEN.read_text(encoding="utf-8"))
    added, removed = sorted(got.keys() - want.keys()), sorted(want.keys() - got.keys())
    changed = sorted(path for path in got.keys() & want.keys() if got[path] != want[path])
    assert not (added or removed or changed), f"report corpus differs from {GOLDEN.relative_to(ROOT)}:\n" + \
        "\n".join(listing(kind, paths, corpus) for kind, paths in
                  (("added", added), ("removed", removed), ("changed", changed)))
