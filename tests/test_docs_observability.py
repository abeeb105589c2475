"""Every ``python`` block in ``docs/observability.md`` runs as written.

Each block is executed on its own, in a fresh namespace and a temporary
working directory, so the examples stay self-contained and their output
files never land in the repository. The golden-trace regeneration
snippet must also reproduce the committed fixture byte for byte.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "observability.md"
GOLDEN = Path("tests") / "data" / "golden_trace_n5.jsonl"

BLOCKS = re.findall(r"^```python\n(.*?)^```", DOC.read_text(encoding="utf-8"), re.M | re.S)


def _run(block: str, index: int) -> None:
    exec(compile(block, f"{DOC.name}[python block {index}]", "exec"), {"__name__": "__doc__"})


def test_the_doc_has_python_blocks():
    assert len(BLOCKS) >= 4


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run(BLOCKS[index], index)


def test_golden_trace_snippet_regenerates_the_fixture(tmp_path, monkeypatch):
    (index,) = [i for i, block in enumerate(BLOCKS) if str(GOLDEN) in block]
    monkeypatch.chdir(tmp_path)
    _run(BLOCKS[index], index)
    assert (tmp_path / GOLDEN).read_bytes() == (ROOT / GOLDEN).read_bytes()
