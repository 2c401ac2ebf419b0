"""Every module of the package uses each name it imports, every private
module-level name is used by the package, and no random draw goes around
the seed.

No linter ships with the test dependencies, so these are the unused-import
check (an imported name must appear as a name somewhere in its module;
`__init__.py` imports to re-export and is exempt), the unused-private
check (a module-level `_name` must be read somewhere in `src/` outside its
own definition, so library code that only tests use cannot hide there)
and the seeding check: every draw is named by a seed and a detection
index, so no function takes a generator, and nothing spawns child seeds
or reads a generator's seed sequence."""

import ast
from pathlib import Path

import pytest

import spinoeqc

PACKAGE = sorted(Path(spinoeqc.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


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


def _defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement binds by definition or assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    else:
        return []
    nodes = [node for target in targets for node in ast.walk(target)]
    return [node.id for node in nodes if isinstance(node, ast.Name)]


def _read_names(statement: ast.stmt) -> set[str]:
    """The names a statement reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name`s of the modules `sources` (name -> source) that
    no module reads outside the statement that defines them."""
    statements = [
        (module, statement, _read_names(statement))
        for module, source in sources.items()
        for statement in ast.parse(source).body
    ]
    unused = []
    for module, defining, _ in statements:
        for name in _defined_names(defining):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in reads for _, s, reads in statements if s is not defining):
                unused.append(f"{module}: {name} (line {defining.lineno})")
    return unused


def test_the_check_finds_an_unused_private_name():
    sources = {
        "a": "_USED = 1\n_UNUSED: int = 2\ndef _helper():\n    return _helper()\n",
        "b": "from .a import _USED\nclass _Kept:\n    pass\n",
        "c": "import b\nb._Kept()\ndef public():\n    return 0\n",
    }
    # a function that only calls itself is read by nobody else
    assert unused_private_names(sources) == ["a: _UNUSED (line 2)", "a: _helper (line 3)"]


def test_package_uses_every_private_name():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert unused_private_names(sources) == []


def generator_routes(source: str) -> list[str]:
    """Where `source` takes a generator (a parameter named `rng` or annotated
    with `Generator`), calls `.spawn(` or reads `seed_seq`, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in filter(None, (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)):
                annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                if arg.arg == "rng" or "Generator" in annotation:
                    name = getattr(node, "name", "lambda")
                    found.append((arg.lineno, f"{name} takes a generator ({arg.arg})"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "spawn":
                found.append((node.lineno, "spawns child seeds"))
        if isinstance(node, ast.Attribute) and node.attr == "seed_seq":
            found.append((node.lineno, "reads seed_seq"))
    return [f"{text} (line {line})" for line, text in sorted(found)]


def test_the_check_finds_a_generator_route():
    source = (
        "def lone(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return rng.normal()\n"
        "def draw(n, rng):\n"
        "    return rng.normal(size=n)\n"
        "def drawn(g: np.random.Generator | None = None):\n"
        "    return g\n"
        "def children(g):\n"
        "    return g.bit_generator.seed_seq.spawn(2)\n"
    )
    # a generator the function seeds itself is no route around the seed
    assert generator_routes(source) == [
        "draw takes a generator (rng) (line 4)",
        "drawn takes a generator (g) (line 6)",
        "reads seed_seq (line 9)",
        "spawns child seeds (line 9)",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_draws_only_through_seeds(path):
    assert generator_routes(path.read_text()) == []
