"""The public surface: what `import quasidiff` exports, and the README's list of it."""

import re
from pathlib import Path

import quasidiff as qd

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_and_appears_once():
    assert len(qd.__all__) == len(set(qd.__all__))
    missing = [name for name in qd.__all__ if not hasattr(qd, name)]
    assert missing == []


def test_readme_library_section_lists_exactly_the_exports():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section)
    assert sorted(listed) == sorted(qd.__all__)
