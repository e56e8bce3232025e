"""Every package name the traced benchmark replay reaches still exists.

``perfbench/replay.py`` wraps and probes the package by name, so deleting or
renaming a function it names breaks the replay only when a full trace runs.
These tests read the replay's source with ``ast`` (without importing or
running it) and check each name it reads on a ``medvideval`` module, each
keyword it passes to one, and each ``(module, "name")`` entry point it wraps,
against the package as it is.  One more test pins the shape of the parsed
``search --k`` value, which the replay indexes.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from medvideval import cli

REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


def _replay_tree() -> ast.Module:
    return ast.parse(REPLAY.read_text(encoding="utf-8"), filename=str(REPLAY))


def _package_modules(tree: ast.Module) -> dict:
    """Local name -> module, for every ``medvideval`` module the replay imports."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("medvideval.") and alias.asname:
                    modules[alias.asname] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "medvideval":
            package = importlib.import_module(node.module)
            for alias in node.names:
                modules[alias.asname or alias.name] = getattr(package, alias.name)
    return modules


def _module_reads(tree: ast.Module, modules: dict) -> list[ast.Attribute]:
    """Every ``module.attr`` load in the replay whose ``module`` is a package module."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]


def test_every_module_attribute_the_replay_reads_resolves():
    tree = _replay_tree()
    modules = _package_modules(tree)
    assert modules, "the replay imports no medvideval module"
    reads = _module_reads(tree, modules)
    assert reads
    missing = [
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in reads
        if not hasattr(modules[node.value.id], node.attr)
    ]
    assert not missing, f"perfbench/replay.py reads names the package no longer has: {missing}"


def _package_calls(tree: ast.Module, modules: dict) -> list[tuple[ast.Call, object]]:
    """Every call of ``module.attr(...)`` in the replay, with the callable it reaches."""
    reads = {id(node) for node in _module_reads(tree, modules)}
    return [
        (node, getattr(modules[node.func.value.id], node.func.attr))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node.func) in reads
        and hasattr(modules[node.func.value.id], node.func.attr)
    ]


def test_every_call_the_replay_makes_binds_to_its_signature():
    tree = _replay_tree()
    calls = _package_calls(tree, _package_modules(tree))
    assert any(call.keywords for call, _ in calls)
    for call, target in calls:
        name = f"{call.func.value.id}.{call.func.attr} (perfbench/replay.py line {call.lineno})"
        signature = inspect.signature(target)
        keywords = [keyword.arg for keyword in call.keywords if keyword.arg is not None]
        for keyword in keywords:
            assert keyword in signature.parameters, f"{name} passes {keyword}=, which it does not take"
        # With no *args or **kwargs the argument count is known too.
        if not any(isinstance(arg, ast.Starred) for arg in call.args) and len(keywords) == len(call.keywords):
            try:
                signature.bind(*call.args, **dict.fromkeys(keywords))
            except TypeError as exc:
                pytest.fail(f"{name} no longer accepts its arguments: {exc}")


# Entry points the replay names as strings and ``Tracer.install`` looks up with
# ``getattr(module, name, None)``, which skips a missing one without a word.
KEPT_ENTRY_POINTS = {("cli", "_emit"), ("step_alignment", "matched_caption_pairs")}
# The one pair the replay still names for a function that is gone.  When the
# replay drops it, drop it here too.
DEAD_ENTRY_POINTS = {("cli", "_ranking_from_candidates")}


def _extra_entry_points(tree: ast.Module) -> list[tuple[str, str]]:
    """The ``(module, "name")`` pairs of the replay's ``EXTRA_ENTRY_POINTS``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "EXTRA_ENTRY_POINTS" for target in node.targets
        ):
            return [(pair.elts[0].id, pair.elts[1].value) for pair in node.value.elts]
    pytest.fail("perfbench/replay.py no longer defines EXTRA_ENTRY_POINTS")


def test_every_entry_point_the_replay_names_resolves():
    tree = _replay_tree()
    modules = _package_modules(tree)
    pairs = _extra_entry_points(tree)
    resolved = {(module, name) for module, name in pairs if inspect.isfunction(getattr(modules[module], name, None))}
    assert KEPT_ENTRY_POINTS <= resolved
    missing = set(pairs) - resolved
    assert missing == DEAD_ENTRY_POINTS, f"perfbench/replay.py names entry points that do not resolve: {sorted(missing)}"


def test_search_k_is_the_one_item_list_the_replay_indexes():
    # The replay's probe_search reads ``args.k[0]``.
    parser = cli.build_parser()
    assert parser.parse_args(["search", "idx", "q.txt", "--k", "7"]).k[0] == 7
    assert parser.parse_args(["search", "idx", "q.txt"]).k[0] == 10
