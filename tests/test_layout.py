"""Source-tree rules: every public definition in src/ has a caller in src/."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "forgetlab"

# The public definitions with no caller in src/, each with its reason.
# Code that only tests call belongs in the tests, or nowhere.
NO_CALLER_IN_SRC = {
    ("model", "load_params"): "reads checkpoints back; resuming an interrupted run will call it",
    ("continual", "ewc_penalty"): "the tests' EWC penalty oracle, and future penalty telemetry",
}


def uncalled_public_definitions(src: Path = SRC) -> set:
    """``(module, name)`` of each public top-level function or class that no
    other top-level statement in ``src`` references as a name or attribute
    (an import is not a reference)."""
    statements = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            statements.append((path.stem, node, names))
    return {
        (module, node.name)
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for _, other, names in statements if other is not node)
    }


def test_every_public_definition_has_a_caller_in_src():
    assert uncalled_public_definitions() == set(NO_CALLER_IN_SRC)
