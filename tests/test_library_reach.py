"""The library is what the CLI verbs reach.

Every public module-level function and class, and every public method of
a public class, in src/qdev must be reached from cli.py, transitively and
by name, or be named in ALLOWED with the caller it is kept for. References
that only tests use belong in tests/conftest.py or in the test module that
uses them.

Reachability is by name: a definition is reached when a reached body
mentions its name (as a bare name or an attribute). A reached class brings
its dunder methods and its class-level statements. Imports do not count,
so the re-exports of qdev/__init__.py reach nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qdev"

ALLOWED = {
    "w1_lower_bound": "acceptance criterion 6's W1 certificate; ROADMAP item 9 adds its upper end",
    "simulate_path": "timed by the trajectories.simulate_path probe of perfbench",
    "require_jumps": "called by perfbench/traced.py",
}


def _definitions():
    """{name: [(qualified name, node, kind)]} over every module of the package;
    kind is "function", "class" or "method"."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append((f"{path.stem}.{node.name}", node, "function"))
            elif isinstance(node, ast.ClassDef):
                defs.setdefault(node.name, []).append((f"{path.stem}.{node.name}", node, "class"))
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualified = f"{path.stem}.{node.name}.{item.name}"
                        defs.setdefault(item.name, []).append((qualified, item, "method"))
    return defs


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _reached(defs, roots):
    """Qualified names of every definition reached from the root nodes."""
    reached = set()
    todo = [name for root in roots for name in _names(root)]
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for qualified, node, kind in defs.get(name, []):
            reached.add(qualified)
            if kind != "class":
                todo.extend(_names(node))
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    todo.extend(_names(item))
                elif item.name.startswith("__"):
                    reached.add(f"{qualified}.{item.name}")
                    todo.extend(_names(item))
            for decorator in node.decorator_list:
                todo.extend(_names(decorator))
    return reached


def _public(qualified):
    return not any(part.startswith("_") for part in qualified.split(".")[1:])


def test_every_public_function_is_reached_or_allowed():
    defs = _definitions()
    roots = [ast.parse((SRC / "cli.py").read_text())]
    roots += [node for name in ALLOWED for _, node, _ in defs.get(name, [])]
    reached = _reached(defs, roots)
    unreached = sorted(qualified for entries in defs.values() for qualified, _, _ in entries
                       if _public(qualified) and qualified not in reached
                       and qualified.rsplit(".", 1)[-1] not in ALLOWED)
    assert unreached == [], f"no verb reaches {unreached}: move them to tests/ or delete them"


def test_allowlist_is_live_and_unreached():
    """Each allowed name exists, once, and no verb reaches it yet; once one
    does, it leaves the list."""
    defs = _definitions()
    reached = _reached(defs, [ast.parse((SRC / "cli.py").read_text())])
    for name in ALLOWED:
        entries = defs.get(name, [])
        assert len(entries) == 1, f"{name} is defined {len(entries)} times"
        assert entries[0][0] not in reached, f"{name} is reached from cli.py; drop it from ALLOWED"
