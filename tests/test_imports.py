"""No module of the package or of the tests imports a name it never uses.

Standard-library ``ast`` only: a name bound by an import must appear as a
``Name`` node somewhere in the same file.  The package ``__init__`` is left
out, since re-exporting imported names is its purpose.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted(
    [
        *(p for p in (ROOT / "src" / "crownlab").glob("*.py") if p.name != "__init__.py"),
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
