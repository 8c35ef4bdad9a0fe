#!/usr/bin/env python3
"""Replay a benchmark workload's requests through the CLI and describe every answer.

``workload_requests`` yields the requests of the first ROUNDS rounds that the
seeded generator of ``perfbench/workloads.py`` yields for WORKLOAD and SEED,
in the order the benchmark sends them; ``answer`` runs one through
``quasidiff.cli.main`` in-process and returns a record of it: the argv, the
exit code or the exception that escaped ``main``, stdout, stderr, and the
SHA-256 of the CSV and the JSON report the request asked for (null when none
was written).  The work directory is a fresh temporary directory entered
with ``chdir`` and the generated documents live under the relative path
``work/``, so argv and answers do not depend on where the run happens, and
two versions of the package can be compared byte for byte.

``python3 perfbench/run.py --seconds 10`` sends 2 rounds of march, 5 of
hypotheses and 19 of sweep (``ROUNDS``).  ``scripts/report_corpus.py``
writes those answers at seeds 1-3 (``SEEDS``) into the corpus, one file
each, so the golden manifest ``tests/golden/corpus.sha256`` pins them.  The
answers depend on the generator in ``perfbench/workloads.py`` and on the
examples and document it takes from ``perfbench/oracle.py``, so a change to
either regenerates the manifest.  The module reads ``perfbench/`` and
writes nothing there; it has no command line of its own.
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, Workload  # noqa: E402, F401 - WORKLOADS is re-exported for request_costs.py

from quasidiff.cli import main  # noqa: E402

WORKDIR = "work"
ROUNDS = {"march": 2, "hypotheses": 5, "sweep": 19}
SEEDS = (1, 2, 3)


def _sha256(path: str | None) -> str | None:
    if not path or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def answer(request) -> dict:
    """Run one request as the benchmark does and describe what it left behind."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code = exception = None
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(request.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaped exception is part of the answer
        exception = f"{type(exc).__name__}: {exc}"
    record = {"argv": request.argv, "exit": code, "exception": exception,
              "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
              "csv_sha256": _sha256(request.csv), "out_sha256": _sha256(request.out)}
    for path in (request.csv, request.out):
        if path and os.path.exists(path):
            os.remove(path)
    return record


@contextlib.contextmanager
def workload_requests(workload: str, seed: int, rounds: int):
    """The requests of the first ROUNDS rounds, in the order the benchmark sends them, while the working
    directory is a fresh temporary directory that holds the generated documents under ``work/``."""
    with tempfile.TemporaryDirectory(prefix="replay-") as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            os.mkdir(WORKDIR)
            batches = itertools.islice(Workload(workload, seed, WORKDIR).rounds(), rounds)
            yield (request for batch in batches for request in batch)
        finally:
            os.chdir(cwd)
