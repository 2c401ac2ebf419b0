"""Every module of the package uses each name it imports.

No linter ships with the test dependencies, so this is the unused-import
check: an imported name must appear as a name somewhere in its module.
`__init__.py` imports to re-export and is exempt."""

import ast
from pathlib import Path

import pytest

import spinoeqc

MODULES = sorted(
    path for path in Path(spinoeqc.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .quantum import Unitary, compose\nnp.eye(2)\n"
    assert unused_imports(source + "compose()\n") == ["os (line 1)", "Unitary (line 3)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
