#!/usr/bin/env python3
"""Check that this checkout's package answers byte for byte as another checkout's does.

    python scripts/identity_check.py PARENT_CHECKOUT

PARENT_CHECKOUT is a directory holding another version of the repository,
usually the parent commit (``git archive HEAD~1 | tar -x -C DIR``).  The
scripts of this checkout drive both packages, each side in its own
subprocess with ``PYTHONPATH=<checkout>/src``:

* ``report_corpus.py``: the two corpus directories are compared file by
  file, and every run whose files differ is printed;
* ``replay_answers.py`` for march, hypotheses and sweep at 2, 5 and 19
  rounds (what ``perfbench/run.py --seconds 10`` sends), for seeds 1-3: the
  answers are compared line by line, and every answer that differs is
  printed with its argv and the fields that differ.

Exit status 0 when nothing differs, 1 when something does, 2 when a side
fails to run.  Everything is written to a temporary directory; nothing is
written under ``perfbench/``.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
CHANGE = SCRIPTS.parent
ROUNDS = {"march": 2, "hypotheses": 5, "sweep": 19}
SEEDS = (1, 2, 3)


def run_side(checkout: Path, script: str, *args: str) -> None:
    """Run one of this checkout's scripts against checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{script} {' '.join(args)} failed against {checkout} "
                 f"(exit {done.returncode}):\n{done.stderr}")


def corpus_differences(old: Path, new: Path) -> list[str]:
    """The corpus entries (run directories or documents) whose files differ."""
    differ = []
    for name in sorted(set(os.listdir(old)) | set(os.listdir(new))):
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            differ.append(f"{name} (only in {'parent' if a.exists() else 'change'})")
        elif a.is_dir() and b.is_dir():
            files = sorted(set(os.listdir(a)) | set(os.listdir(b)))
            changed = [f for f in files if not ((a / f).exists() and (b / f).exists()
                                                and filecmp.cmp(a / f, b / f, shallow=False))]
            if changed:
                differ.append(f"{name} ({', '.join(changed)})")
        elif a.is_dir() != b.is_dir() or not filecmp.cmp(a, b, shallow=False):
            differ.append(name)
    return differ


def answer_differences(old: Path, new: Path) -> tuple[int, list[str]]:
    """(answers in the change's replay, one line per answer that differs)."""
    old_lines = old.read_text(encoding="utf-8").splitlines()
    new_lines = new.read_text(encoding="utf-8").splitlines()
    differ = []
    for i, (a, b) in enumerate(zip(old_lines, new_lines)):
        if a != b:
            ra, rb = json.loads(a), json.loads(b)
            fields = [k for k in sorted(set(ra) | set(rb)) if ra.get(k) != rb.get(k)]
            differ.append(f"answer {i}: {' '.join(rb['argv'])} ({', '.join(fields)})")
    if len(old_lines) != len(new_lines):
        differ.append(f"{len(old_lines)} answers in the parent, {len(new_lines)} in the change")
    return len(new_lines), differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the version to compare against")
    args = parser.parse_args()
    parent = args.parent.resolve()
    if not (parent / "src" / "quasidiff").is_dir():
        parser.error(f"{parent} holds no src/quasidiff")
    sides = {"parent": parent, "change": CHANGE}
    total = 0
    with tempfile.TemporaryDirectory(prefix="identity-check-") as tmp:
        out = Path(tmp)
        for side, checkout in sides.items():
            run_side(checkout, "report_corpus.py", str(out / f"corpus-{side}"))
        differ = corpus_differences(out / "corpus-parent", out / "corpus-change")
        print(f"corpus: {len(os.listdir(out / 'corpus-change'))} entries, {len(differ)} differ")
        total += len(differ)
        for line in differ:
            print(f"  differs: {line}")
        for workload, rounds in ROUNDS.items():
            for seed in SEEDS:
                for side, checkout in sides.items():
                    run_side(checkout, "replay_answers.py", workload, str(seed), str(rounds),
                             str(out / f"{workload}-{seed}-{side}.jsonl"))
                count, differ = answer_differences(out / f"{workload}-{seed}-parent.jsonl",
                                                   out / f"{workload}-{seed}-change.jsonl")
                print(f"{workload} seed {seed} ({rounds} rounds): {count} answers, {len(differ)} differ")
                total += len(differ)
                for line in differ:
                    print(f"  differs: {line}")
    print("identical" if total == 0 else f"{total} differences")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
