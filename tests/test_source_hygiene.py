"""Every name a grovekit module imports is used in that module, every
input key is taken by `model.read_key`, and every source file parses as
the oldest Python the project supports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "grovekit"


def _imported(tree):
    """Name bound by each import in ``tree``, with its line number."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names read anywhere in ``tree``, and the strings of ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _imported(tree) if name not in used]
    assert unused == []


@pytest.mark.parametrize(
    "path", sorted(path for part in ("src", "tests", "bench", "demos")
                   for path in (ROOT / part).rglob("*.py")),
    ids=lambda path: str(path.relative_to(ROOT)))
def test_every_module_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python = ">=3.10"
    ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def _pops(tree):
    """The innermost function around each ``.pop(`` call, by line."""
    owner = {}
    # ast.walk goes outside in, so an inner function's name is kept
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(func), func.name))
    return [(owner.get(node, "<module>"), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"]


def test_only_read_key_pops_a_key():
    # a loader that pops a key itself words its faults its own way
    pops = [(path.name, name, line) for path in sorted(PACKAGE.glob("*.py"))
            for name, line in _pops(ast.parse(path.read_text(), str(path)))]
    assert [(module, name) for module, name, _ in pops] == [
        ("model.py", "read_key")], pops


def _frozen_classes(tree):
    """The classes of ``tree`` declared ``@dataclass(frozen=True)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None)
                == "dataclass" and any(k.arg == "frozen"
                                       and getattr(k.value, "value", None)
                                       is True for k in d.keywords)
                for d in node.decorator_list):
            yield node


def _outer_name(annotation):
    """``dict`` for ``dict[int, str]``, ``list`` for ``list``, and so on."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return getattr(annotation, "id", None)


def test_frozen_dataclasses_hold_no_mutable_containers():
    # a frozen object whose field is a dict, list or set can change after
    # its checks, and cannot be hashed
    found = [f"{path.name}:{field.lineno}: {cls.name}.{field.target.id}"
             for path in sorted(PACKAGE.glob("*.py"))
             for cls in _frozen_classes(ast.parse(path.read_text(), str(path)))
             for field in cls.body if isinstance(field, ast.AnnAssign)
             and _outer_name(field.annotation) in ("dict", "list", "set")]
    assert found == []


def test_cli_restates_no_bound_of_another_module():
    # a range rule has one home, in the module whose entry point needs it;
    # a copy of its bound in the CLI could drift from the library's check
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    named = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    assert sorted(name for name in named if name.startswith("MAX_")) == []


def test_smoothing_width_rule_has_one_home():
    # `infotheory.check_width` words the rule; every other check calls it
    text = "smoothing width must lie in"
    assert sum(path.read_text().count(text)
               for path in PACKAGE.glob("*.py")) == 1


def test_cli_builds_no_information_grid():
    # `infotheory.location_family` owns the `info` grid and its rules
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    bound = {name for name, _ in _imported(tree)}
    assert bound & {"Axis", "GridSpec", "MetricBinding",
                    "build_nested_distribution"} == set()


def test_information_scale_rule_has_one_home():
    # `infotheory.check_scale` words the rule; `info` reads scale through it
    text = "1/scale^2 finite and nonzero"
    assert sum(path.read_text().count(text)
               for path in PACKAGE.glob("*.py")) == 1
