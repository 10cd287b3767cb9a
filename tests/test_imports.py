"""No module of the package or of the tests imports a name it never uses,
the package defines no private function or class that it never uses, and
no test file defines one name twice in one scope.

Standard-library ``ast`` only: a name bound by an import must appear as a
``Name`` node somewhere in the same file.  The package ``__init__`` is left
out, since re-exporting imported names is its purpose.  A module-level
private function or class of the package must be referred to, as a name or
an attribute, somewhere in the package outside its own definition; code
that only the tests call belongs in the tests.  A second ``class`` or
``def`` of a name in the same scope replaces the first, so pytest never
collects the tests of the first.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "crownlab").glob("*.py"))
SOURCES = sorted(
    [
        *(p for p in PACKAGE if p.name != "__init__.py"),
        *(ROOT / "tests").glob("*.py"),
    ]
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nprint(os.sep)\n") == ["math (line 1)"]


def test_no_unused_imports():
    assert len(SOURCES) > 15
    unused = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := unused_imports(path.read_text()))
    }
    assert unused == {}


def references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every ``Name`` and ``Attribute`` node."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
    return refs


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """``file:name`` of each module-level private function or class that no
    source refers to outside its own definition."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    refs = {file: references(tree) for file, tree in trees.items()}
    found = []
    for file, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and not (other == file and line in own)
                for other, found_refs in refs.items()
                for name, line in found_refs
            ):
                found.append(f"{file}:{node.name}")
    return found


def test_finds_an_unreferenced_private():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _dead():\n    return _dead()\n\n\nclass _Box:\n    pass\n",
        "b.py": "import a\n\na._used()\n",
    }
    assert unreferenced_privates(sources) == ["a.py:_dead", "a.py:_Box"]


def test_every_private_is_used_in_the_package():
    assert unreferenced_privates({p.name: p.read_text() for p in PACKAGE}) == []


def shadowed_definitions(source: str) -> list[str]:
    """``name (lines a, b)`` of each class or function defined again in the
    body of the same module, class or function."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            continue
        first: dict[str, int] = {}
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in first:
                    found.append(f"{node.name} (lines {first[node.name]}, {node.lineno})")
                first.setdefault(node.name, node.lineno)
    return found


def test_finds_a_shadowed_definition():
    source = (
        "class A:\n    def f(self):\n        pass\n\n    def f(self):\n        pass\n\n\n"
        "def g():\n    pass\n\n\nclass A:\n    pass\n"
    )
    assert shadowed_definitions(source) == ["A (lines 1, 13)", "f (lines 2, 5)"]


def test_no_test_file_shadows_a_definition():
    files = [*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench" / "tests").glob("*.py")]
    assert len(files) > 10
    shadowed = {
        str(path.relative_to(ROOT)): names
        for path in sorted(files)
        if (names := shadowed_definitions(path.read_text()))
    }
    assert shadowed == {}
