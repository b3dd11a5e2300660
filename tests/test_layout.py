"""The library holds only what the CLI, the scripts and the benchmark run.

Every top-level function and class of ``src/kamtorus``, and every method, must
be named somewhere other than its own definition: as an identifier or a string
in ``src/`` outside that definition, or anywhere in ``scripts/`` or
``perfbench/``.  Docstrings do not count.  A name that only the tests use
belongs with the tests (``tests/oracles.py``).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kamtorus"


def _docstrings(tree: ast.AST) -> set:
    """The string nodes that are docstrings of a module, class or function."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                out.add(id(body[0].value))
    return out


def _names(node: ast.AST, skip: set) -> Counter:
    """References under ``node``, keyed (kind, name): kind "name" for a bare
    identifier or an imported name, "attr" for an attribute, "str" for a whole
    string constant other than a docstring."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found["attr", sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found["name", sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in skip:
            found["str", sub.value] += 1
    return found


def _definitions(tree: ast.Module):
    """(qualified name, node) of the top-level functions and classes and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _parse(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return tree, _docstrings(tree)


def test_every_library_definition_is_used_outside_the_tests():
    outside = Counter()
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree, skip = _parse(path)
            outside += _names(tree, skip)
    library = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    in_src = Counter()
    for tree, skip in library.values():
        in_src += _names(tree, skip)

    unused = []
    for path, (tree, skip) in library.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language, not by name
            # a method is reached as an attribute or through getattr, never bare
            kinds = ("attr", "str") if "." in qualname else ("name", "attr", "str")
            own = _names(node, skip)
            if not any(in_src[k, name] - own[k, name] + outside[k, name] for k in kinds):
                unused.append(f"{path.name}: {qualname}")
    assert unused == [], "defined in src/ but named only by the tests: " + ", ".join(unused)
