"""Source-tree rules: every public definition in src/ has a caller in src/,
each config choice set is read only by its field's metadata, only the
owners of finiteness raise NonFiniteError, and README names every
setting."""

import ast
import re
from pathlib import Path

from forgetlab.cli import SETTINGS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "forgetlab"

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


# Each config field's choice set. check_fields checks a setting against its
# field's "choices" metadata; nothing else in src/ may check it again.
CHOICE_SETS = {
    "SOURCES",
    "OPTIMIZER_KINDS",
    "STRATEGY_KINDS",
    "ATTENUATION_KINDS",
    "TARGETS",
    "ESTIMATORS",
}


def choice_set_uses(src: Path = SRC) -> tuple[list, list]:
    """``(module, name)`` of each choice set read as a field's ``choices``
    metadata, and ``(module, line, name)`` of every other read of one."""
    as_choices, elsewhere = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        metadata_values = {
            id(value)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "field"
            for kw in call.keywords
            if kw.arg == "metadata" and isinstance(kw.value, ast.Dict)
            for key, value in zip(kw.value.keys, kw.value.values)
            if isinstance(key, ast.Constant) and key.value == "choices"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in CHOICE_SETS:
                continue
            if id(node) in metadata_values:
                as_choices.append((path.stem, name))
            else:
                elsewhere.append((path.stem, node.lineno, name))
    return as_choices, elsewhere


def test_each_choice_set_is_read_only_by_its_fields_metadata():
    as_choices, elsewhere = choice_set_uses()
    assert elsewhere == []
    assert sorted(name for _, name in as_choices) == sorted(CHOICE_SETS)


# The functions that may raise NonFiniteError, each owning one fact. A
# non-finite gradient, step or parameter reaches forward before any result
# is recorded, so a scan anywhere else re-checks a fact forward owns.
NON_FINITE_OWNERS = {
    ("model", "forward"): "every pre-activation of every pass",
    ("harness", "run_sequence"): "the loss, and where a run diverged",
    ("continual", "check_importance"): "each importance map",
    ("model", "load_params"): "each checkpoint read back",
}


def non_finite_raisers(src: Path = SRC) -> set:
    """``(module, scope)`` of each ``raise NonFiniteError`` in ``src``; the
    scope is the dotted path of enclosing definitions, such as
    ``Class.method``, or ``<module>`` outside any."""
    found = set()

    class Raises(ast.NodeVisitor):
        def __init__(self, module: str):
            self.module, self.scope = module, []

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scope

        def visit_Raise(self, node):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "NonFiniteError":
                found.add((self.module, ".".join(self.scope) or "<module>"))

    for path in sorted(src.glob("*.py")):
        Raises(path.stem).visit(ast.parse(path.read_text()))
    return found


def test_only_the_owners_of_finiteness_raise_non_finite_error():
    assert non_finite_raisers() == set(NON_FINITE_OWNERS)


def undocumented_settings(readme: str) -> list:
    """Each setting whose INI key (in backticks) and flag both go unnamed in ``readme``."""
    return [
        s.dest
        for s in SETTINGS
        if f"`{s.key}`" not in readme and not re.search(re.escape(s.flag) + r"(?![\w-])", readme)
    ]


def test_readme_names_every_setting():
    # a setting README never mentions is a hidden knob: document it or delete it
    assert undocumented_settings((ROOT / "README.md").read_text()) == []
