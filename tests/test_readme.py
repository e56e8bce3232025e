"""README.md documents the package: its Python examples run as written (every
``python`` block, in order, in one namespace, in a directory holding the files
they open), and it names every export."""

import ast
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
ORGANISER = Path(__file__).resolve().parent / "data" / "organiser"
# The files the examples open, each a copy of an organiser fixture.
FIXTURES = {"sysA.run": "retrieval.run", "qrels.txt": "qrels.txt", "candidates.jsonl": "localization.jsonl"}


# The fixture run holds one unjudged question, which the examples warn about.
@pytest.mark.filterwarnings("ignore::medvideval.core.ToolkitWarning")
def test_readme_python_examples_run(tmp_path, monkeypatch):
    for name, fixture in FIXTURES.items():
        shutil.copy(ORGANISER / fixture, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL))
    assert len(blocks) >= 3
    namespace: dict = {}
    for block in blocks:
        # Pad with the lines before the block so a traceback names README's own line numbers.
        padding = "\n" * text.count("\n", 0, block.start(1))
        exec(compile(padding + block.group(1), str(README), "exec"), namespace)


def test_readme_names_every_export():
    package = ast.parse((ROOT / "src" / "medvideval" / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in package.body if isinstance(node, ast.ImportFrom)]
    exports = [alias.asname or alias.name for node in imports for alias in node.names]
    text = README.read_text(encoding="utf-8")
    assert [name for name in exports if not re.search(rf"\b{name}\b", text)] == []
