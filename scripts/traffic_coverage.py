#!/usr/bin/env python3
"""List the lines of the package's functions that the benchmark's traffic never runs.

    PYTHONPATH=src python scripts/traffic_coverage.py

The traffic is every run of ``report_corpus.py``, which ends with what
``python3 perfbench/run.py --seconds 10`` sends at seeds 1-3: 2 rounds of
march, 5 of hypotheses and 19 of sweep, answered through
``replay_answers.answer``.  A ``sys.settrace`` line tracer, limited to the
files of the ``quasidiff`` package, is started before the package is
imported, so import-time code is traced too.  A function-body line is the
first line of a statement inside a function that compiles to bytecode
(docstrings do not).  Each such line that no run reached is printed as
``file:line: text``, followed by a count per module.  The runs happen in
temporary directories; nothing is written under ``perfbench/``.
"""

import argparse
import ast
import importlib.util
import os
import sys
import tempfile
from pathlib import Path


def code_lines(code) -> set[int]:
    """The lines code's own instructions are on, but its first (the def line, or a one-line body)."""
    return {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}


def nested_codes(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from nested_codes(const)


def function_body_lines(path: str) -> set[int]:
    """First lines of the statements inside functions that some instruction is on."""
    source = Path(path).read_text(encoding="utf-8")
    tree = ast.parse(source, path)
    statements = {node.lineno for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn) if isinstance(node, ast.stmt) and node is not fn}
    compiled = {line for code in nested_codes(compile(source, path, "exec")) for _, _, line in code.co_lines()}
    return statements & compiled


class LineTracer:
    """Records the lines run in files under prefix; a frame whose code has shown every line stops tracing lines."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.lines = {}  # code object -> (real path of its file, its lines; none outside prefix)
        self.unseen = {}  # code object -> its lines not run yet

    def on_call(self, frame, event, arg):
        code = frame.f_code
        unseen = self.unseen.get(code)
        if unseen is None:
            path = os.path.realpath(code.co_filename)
            lines = code_lines(code) if path.startswith(self.prefix) else set()
            self.lines[code] = path, lines
            unseen = self.unseen[code] = set(lines)
        return self.on_line if unseen else None

    def on_line(self, frame, event, arg):
        if event == "line":
            unseen = self.unseen[frame.f_code]
            unseen.discard(frame.f_lineno)
            if not unseen:
                frame.f_trace_lines = False
        return self.on_line

    def reached(self) -> dict[str, set[int]]:
        by_file = {}
        for code, (path, lines) in self.lines.items():
            by_file.setdefault(path, set()).update(lines - self.unseen[code])
        return by_file


def run_traffic() -> None:
    import report_corpus

    with tempfile.TemporaryDirectory(prefix="traffic-coverage-") as scratch:
        runs, answers = report_corpus.write_corpus(os.path.join(scratch, "corpus"))
    print(f"# report_corpus: {runs} runs, {answers} answers", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    spec = importlib.util.find_spec("quasidiff")  # locates the package without importing it
    if spec is None or not spec.submodule_search_locations:
        parser.error("quasidiff is not importable; run with PYTHONPATH=src")
    package = os.path.realpath(spec.submodule_search_locations[0])
    tracer = LineTracer(package + os.sep)
    sys.settrace(tracer.on_call)
    try:
        run_traffic()
    finally:
        sys.settrace(None)
    reached = tracer.reached()
    counts = []
    for path in sorted(str(p) for p in Path(package).glob("*.py")):
        body = function_body_lines(path)
        missed = sorted(body - reached.get(path, set()))
        text = Path(path).read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{os.path.relpath(path)}:{line}: {text[line - 1].strip()}")
        counts.append((os.path.basename(path), len(missed), len(body)))
    for name, missed, total in counts:
        print(f"{name}: {missed} of {total} function-body lines not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
