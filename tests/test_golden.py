"""Golden answers: the report corpus against its committed sha256 manifest.

`scripts/report_corpus.py` runs the CLI over a fixed corpus of requests and
writes every stdout, stderr, exit code, --out report and --csv export.  A
change that alters an answer regenerates the manifest with

    PYTHONPATH=src python scripts/report_corpus.py --manifest tests/golden/corpus.sha256

and the manifest's diff is the list of changed runs.  The digests tie the
answers to this platform's libm; on another platform a mismatch is first a
libm question.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "corpus.sha256"


def digests(text: str) -> dict[str, str]:
    """{relative path: digest} of sha256sum lines."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in text.splitlines())}


def test_report_corpus_matches_the_golden_manifest(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    manifest = tmp_path / "corpus.sha256"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_corpus.py"), str(tmp_path / "corpus"),
                           "--manifest", str(manifest)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got, want = digests(manifest.read_text(encoding="utf-8")), digests(GOLDEN.read_text(encoding="utf-8"))
    added, removed = sorted(got.keys() - want.keys()), sorted(want.keys() - got.keys())
    changed = sorted(path for path in got.keys() & want.keys() if got[path] != want[path])
    assert not (added or removed or changed), \
        f"report corpus differs from {GOLDEN.relative_to(ROOT)}: added {added}, removed {removed}, changed {changed}"
