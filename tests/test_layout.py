"""Source-tree rules: every public definition in src/ has a caller in src/,
each config choice set is read only by its field's metadata, only the
owners of finiteness raise NonFiniteError and only the owners of shapes
and dtypes ShapeError, the random-stream ids are defined once, only
``numerics.stream`` touches ``numpy.random``, only ``harness`` imports
``configparser``, and README names every setting."""

import ast
import re
from pathlib import Path

from forgetlab.harness import SETTINGS

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


def scoped_nodes(src: Path = SRC):
    """``(module, scope, node)`` of every AST node in ``src``; the scope is
    the dotted path of enclosing definitions, such as ``Class.method``, or
    ``<module>`` outside any."""

    def walk(module, node, scope):
        for child in ast.iter_child_nodes(node):
            yield module, ".".join(scope) or "<module>", child
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from walk(module, child, scope + [child.name] if named else scope)

    for path in sorted(src.glob("*.py")):
        yield from walk(path.stem, ast.parse(path.read_text()), [])


def raisers(exception: str, src: Path = SRC) -> set:
    """``(module, scope)`` of each ``raise <exception>`` in ``src``."""
    found = set()
    for module, scope, node in scoped_nodes(src):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == exception:
                found.add((module, scope))
    return found


def test_only_the_owners_of_finiteness_raise_non_finite_error():
    assert raisers("NonFiniteError") == set(NON_FINITE_OWNERS)


# The functions that may raise ShapeError, each owning one fact. A task's
# batches and chunks are gathered from a base checked once per build, so
# neither a task nor the model re-checks what these own.
SHAPE_ERROR_OWNERS = {
    ("model", "MlpParams.__init__"): "the blocks a parameter vector is built from",
    ("model", "MlpParams.from_flat"): "a flat vector wrapped in a layout",
    ("model", "check_congruent"): "that two parameter-shaped operands agree",
    ("numerics", "matmul"): "each product's operand shapes and dtypes",
    ("data", "_shared_base"): "each base split's layout, once per build",
}


def test_only_the_owners_of_shapes_raise_shape_error():
    assert raisers("ShapeError") == set(SHAPE_ERROR_OWNERS)


def stream_ids(src: Path = SRC) -> list:
    """``(module, name, value)`` of each top-level ``*_STREAM_ID`` assignment in ``src``."""
    return [
        (path.stem, target.id, ast.literal_eval(node.value))
        for path in sorted(src.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_STREAM_ID")
    ]


def test_stream_ids_are_registered_once_in_numerics():
    # two modules each picking ids could hand one id to two kinds of draw
    found = stream_ids()
    assert {module for module, _, _ in found} == {"numerics"}
    values = [value for _, _, value in found]
    assert len(set(values)) == len(values)


def numpy_random_users(src: Path = SRC) -> set:
    """``(module, scope)`` of each use of ``numpy.random`` in ``src`` outside a
    type annotation: the attribute ``np.random`` or ``numpy.random``, or an
    import of the module or of a name in it."""
    nodes = list(scoped_nodes(src))
    in_annotation = {
        id(inner)
        for _, _, node in nodes
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if annotation is not None
        for inner in ast.walk(annotation)
    }
    found = set()
    for module, scope, node in nodes:
        if isinstance(node, ast.Attribute):
            names = [f"{getattr(node.value, 'id', None)}.{node.attr}"]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if id(node) not in in_annotation and any(
            re.fullmatch(r"(np|numpy)\.random(\..*)?", name) for name in names
        ):
            found.add((module, scope))
    return found


def test_only_numerics_stream_uses_numpy_random():
    # every draw descends from a run's seed through one keyed generator
    assert numpy_random_users() == {("numerics", "stream")}


def test_numpy_random_rule_sees_calls_and_imports_but_not_annotations(tmp_path):
    (tmp_path / "draws.py").write_text(
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "def f(rng: np.random.Generator) -> np.random.Generator:\n"
        "    return rng\n"
        "class C:\n"
        "    def g(self):\n"
        "        return np.random.default_rng(0)\n"
    )
    assert numpy_random_users(tmp_path) == {("draws", "<module>"), ("draws", "C.g")}


def importers(module_name: str, src: Path = SRC) -> set:
    """The modules in ``src`` that import ``module_name`` or a name from it."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == module_name for name in names):
                found.add(path.stem)
    return found


def test_only_harness_reads_ini_text():
    # the settings text has one reader, beside the table that spells it
    assert importers("configparser") == {"harness"}


def test_importers_sees_both_import_forms(tmp_path):
    (tmp_path / "a.py").write_text("import configparser\n")
    (tmp_path / "b.py").write_text("def f():\n    from configparser import ConfigParser\n")
    (tmp_path / "c.py").write_text("import configparser_extra\n")
    assert importers("configparser", tmp_path) == {"a", "b"}


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
