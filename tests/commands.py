"""One command line for each subcommand, on copies of the committed fixtures.

Every test that runs a subcommand on them takes its command line from here,
so a flag added to every subcommand is one edit.
"""

import re
from pathlib import Path

from medvideval.cli import run_cli

TESTS = Path(__file__).resolve().parent
ORGANISER = TESTS / "data" / "organiser"
STEPS = TESTS / "data" / "steps"
SMOKE = TESTS.parent / "data" / "smoke"

# Each fixture the commands read, and the JSON key whose ids a copy renames;
# None marks a flat file, whose lines start with the renamed id.
TRACK_FIXTURES = {
    "retrieval.run": (ORGANISER / "retrieval.run", None),
    "qrels.txt": (ORGANISER / "qrels.txt", None),
    "answers.jsonl": (ORGANISER / "answers.jsonl", "question"),
    "localization.jsonl": (ORGANISER / "localization.jsonl", "question"),
    "pred.jsonl": (STEPS / "pred.jsonl", "segment"),
    "gold.jsonl": (STEPS / "gold.jsonl", "segment"),
    "corpus.jsonl": (SMOKE / "corpus.jsonl", "video"),
    "queries.txt": (SMOKE / "queries.txt", None),
}


def track_inputs(directory: Path, copies: int) -> Path:
    """The fixtures ``copies`` times over in ``directory``, each copy after the first under renamed ids.

    Also a BM25 index of the corpus, and ``bad.run``: the retrieval run with a
    malformed last line, so that its parse fails only after every valid line.
    """
    directory.mkdir()
    for name, (fixture, key) in TRACK_FIXTURES.items():
        text = fixture.read_text(encoding="utf-8")
        pattern = r"(?m)^(?=[^#\s])" if key is None else f'(?<="{key}": ")'
        copied = "".join([text] + [re.sub(pattern, f"c{copy}-", text) for copy in range(1, copies)])
        (directory / name).write_text(copied, encoding="utf-8")
    run = (directory / "retrieval.run").read_text(encoding="utf-8")
    (directory / "bad.run").write_text(run + "q1 Q0 broken\n", encoding="utf-8")
    assert run_cli(["index", str(directory / "corpus.jsonl"), "--out", str(directory / "idx")]) == 0
    return directory


def command_argv(directory: Path, out: Path) -> dict[str, list[str]]:
    """Every subcommand, plus one that exits 2 on a malformed run, on the inputs of ``track_inputs`` in ``directory``.

    Each command writes to ``out / command``.  eval-retrieval reads the grade
    file alone, so that a fault in it is never reported through the answer sidecar.
    """
    d = {name: str(directory / name) for name in [*TRACK_FIXTURES, "bad.run", "idx"]}
    qrels = ["--qrels", d["qrels.txt"], d["answers.jsonl"]]
    steps = ["--pred", d["pred.jsonl"], "--gold", d["gold.jsonl"]]
    structured = ["--format", "structured"]
    argv = {
        "eval-retrieval": ["eval-retrieval", "--run", d["retrieval.run"], "--qrels", d["qrels.txt"]],
        "eval-localization": ["eval-localization", "--run", d["localization.jsonl"], *qrels],
        "eval-vcval": ["eval-vcval", "--run", d["localization.jsonl"], *qrels, *structured],
        "eval-steps": ["eval-steps", *steps],
        "eval-captions": ["eval-captions", *steps, *structured],
        "pool": ["pool", "--run", d["retrieval.run"]],
        "index": ["index", d["corpus.jsonl"]],
        "search": ["search", d["idx"], d["queries.txt"], "--k", "10"],
        "malformed-run": ["eval-retrieval", "--run", d["bad.run"], "--qrels", d["qrels.txt"]],
    }
    return {command: [*args, "--out", str(out / command)] for command, args in argv.items()}
