"""The library holds only what the CLI, the scripts and the benchmark run.

Every top-level function and class of ``src/kamtorus``, and every method, must
be named somewhere other than its own definition: as an identifier or a string
in ``src/`` outside that definition, or anywhere in ``scripts/`` or
``perfbench/``.  Docstrings do not count.  A name that only the tests use
belongs with the tests (``tests/oracles.py``).

Every import in ``src/``, ``scripts/`` and ``tests/`` must be named by its
module, but one on a line marked ``# noqa: F401``.

No handler in ``src/`` catches every exception: a failure is caught by its
class, so a bug keeps its traceback.

No code in ``src/`` writes a frozen dataclass's field behind its constructor:
``object.__setattr__`` appears only in a ``__post_init__``, where it
normalizes a field the constructor was given.

Every transform the program runs takes one path: ``np.fft`` is named in
``src/`` only inside the four pruned-transform helpers of the slab layer.
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


def _bound_names(node: ast.AST) -> set:
    """The names a module uses: identifiers (attribute bases among them), the
    strings of ``__all__`` and function parameters (pytest fixtures)."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.arg):
            used.add(sub.arg)
        elif isinstance(sub, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                 for t in sub.targets):
            used.update(getattr(elt, "value", None) for elt in getattr(sub.value, "elts", ()))
    return used


def test_no_unused_import():
    """Every name imported in src/, scripts/ and tests/ is named by its module,
    but one on a line marked ``# noqa: F401``."""
    unused = []
    for folder in ("src", "scripts", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            text = path.read_text()
            lines = text.splitlines()
            tree = ast.parse(text, filename=str(path))
            used = _bound_names(tree)
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                        getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "*" and name not in used and \
                            "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.relative_to(ROOT)}:{alias.lineno} {alias.name}")
    assert unused == [], "imported but never named: " + ", ".join(unused)


def test_no_catch_all_handler_in_src():
    """No ``except:``, ``except Exception`` or ``except BaseException`` in src/,
    alone or in a tuple."""
    broad = {"Exception", "BaseException"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(getattr(t, "id", getattr(t, "attr", None)) in broad
                                        for t in types):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == [], "catch-all exception handlers: " + ", ".join(found)


def test_no_frozen_field_written_outside_post_init():
    """``object.__setattr__`` in src/ appears only inside a ``__post_init__``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(sub) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
                   for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__" and \
                    getattr(node.value, "id", None) == "object" and id(node) not in allowed:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == [], "object.__setattr__ outside a __post_init__: " + ", ".join(found)


FFT_HELPERS = {"_ifft_kept", "_fft_kept", "_synthesis_tail", "_analysis_head"}


def test_every_transform_goes_through_the_slab_helpers():
    """``np.fft`` appears in src/ only inside the slab layer's transform helpers,
    and no module imports an FFT by another name."""
    found = []

    def visit(node, where, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr == "fft" and \
                getattr(node.value, "id", None) == "np" and where not in FFT_HELPERS:
            found.append(f"{path.name}:{node.lineno} in {where}")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("fft" in name for name in names):
                found.append(f"{path.name}:{node.lineno} imports an FFT")
        for child in ast.iter_child_nodes(node):
            visit(child, where, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "module level", path)
    assert found == [], "np.fft outside the slab helpers: " + ", ".join(found)
