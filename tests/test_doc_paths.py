"""Every script, benchmark and perfbench path the docs and CI name exists.

A deleted file leaves references behind in prose and in CI steps; this
catches them.  A path with ``*`` in it is a glob and must match a file.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

_DOCS = [
    REPO / ".github" / "workflows" / "ci.yml",
    REPO / "README.md",
    REPO / "DESIGN.md",
    *sorted((REPO / "docs").glob("*.md")),
]

_PATH = re.compile(
    r"(?<![\w/.-])((?:scripts|benchmarks)/[\w*./-]*\.py|perfbench/[\w*./-]*)"
)


def _named_paths(doc: Path) -> list[str]:
    return sorted({m.group(1).rstrip(".,") for m in _PATH.finditer(doc.read_text())})


@pytest.mark.parametrize("doc", _DOCS, ids=lambda p: str(p.relative_to(REPO)))
def test_named_paths_exist(doc):
    missing = [
        p for p in _named_paths(doc)
        if not (any(REPO.glob(p)) if "*" in p else (REPO / p).exists())
    ]
    assert not missing, f"{doc.name} names missing files: {missing}"


def test_the_pattern_sees_paths():
    assert "scripts/check_trace.py" in _named_paths(_DOCS[0])
