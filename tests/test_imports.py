"""Every module of the package uses each name it imports, every name it
defines is used, and no random draw goes around the seed.

No linter ships with the test dependencies, so these are the unused-import
check (an imported name must appear as a name somewhere in its module;
`__init__.py` imports to re-export and is exempt), the unused-name checks
(a `_name`, at module level or in a class body, and a public module-level
name or public method must be read somewhere in `src/` outside its own
definition, so library code that only tests use cannot hide there; a
re-export in `__init__.py` is no read, and a public name passes too if
the acceptance test reads it or it is a documented entry point) and the
seeding check: every draw is named by a seed and a detection index, so no
function takes a generator, and nothing spawns child seeds or reads a
generator's seed sequence."""

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


def _units(module: str, body: list[ast.stmt], owners: tuple = ()) -> list[tuple]:
    """Each statement of a module's `body`, and of every class body in it,
    as a unit (module, statement, the names it reads, the classes that own
    it). A class's own unit reads only its decorators, bases and keywords:
    each statement of its body is a unit of its own."""
    units = []
    for statement in body:
        if isinstance(statement, ast.ClassDef):
            header = [*statement.decorator_list, *statement.bases, *statement.keywords]
            units.append((module, statement, set().union(*map(_read_names, header)), owners))
            units += _units(module, statement.body, (*owners, statement))
        else:
            units.append((module, statement, _read_names(statement), owners))
    return units


def unused_names(sources: dict[str, str], admitted=frozenset(), public: bool = True) -> list[str]:
    """The names that the modules `sources` (name -> source) define and no
    live code reads, in unit order, each qualified by its classes.

    Checked are every `_name`, at module level or in a class body, and, when
    `public`, every public module-level name and public method (a property
    or a cached property too) that is not in `admitted`. A name passes if a
    live unit reads it, other than its own definition or a unit inside it.
    A unit is dead if every name it defines is checked and fails, or a class
    that owns it is dead; dead code reads nothing, so the check runs to a
    fixpoint, and a name read only by unused ones is unused too."""
    units = [u for module, source in sources.items() for u in _units(module, ast.parse(source).body)]

    def checked(name: str, statement: ast.stmt, owners: tuple) -> bool:
        if name.startswith("__"):
            return False
        if name.startswith("_"):
            return True
        member_function = isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        return public and name not in admitted and (not owners or member_function)

    dead = set()
    while True:
        unused, dying = [], set()
        for module, statement, _, owners in units:
            if any(owner in dead for owner in owners):
                dying.add(statement)
                continue
            names = _defined_names(statement)
            missing = [
                name for name in names if checked(name, statement, owners) and not any(
                    name in reads for _, s, reads, o in units
                    if s not in dead and s is not statement and statement not in o
                )
            ]
            qualifier = "".join(f"{owner.name}." for owner in owners)
            unused += [f"{module}: {qualifier}{name} (line {statement.lineno})" for name in missing]
            if names and len(missing) == len(names):
                dying.add(statement)
        if dying == dead:
            return unused
        dead = dying


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The `_name`s of the modules `sources` (name -> source), at module
    level or in a class body, that no module reads outside the statement
    that defines them (`unused_names` with every public name live)."""
    return unused_names(sources, public=False)


def test_the_check_finds_an_unused_private_name():
    sources = {
        "a": "_USED = 1\n_UNUSED: int = 2\ndef _helper():\n    return _helper()\n",
        "b": (
            "from .a import _USED\n"
            "class _Kept:\n"
            "    _FIELD = 0\n"
            "    def _hidden(self):\n"
            "        return self._FIELD\n"
        ),
        "c": "import b\nb._Kept()\ndef public():\n    return 0\n",
    }
    # a function that only calls itself is read by nobody else, and a class
    # field read only by an unused method is unused too
    assert unused_private_names(sources) == [
        "a: _UNUSED (line 2)", "a: _helper (line 3)", "b: _Kept._FIELD (line 3)",
        "b: _Kept._hidden (line 4)",
    ]


def test_package_uses_every_private_name():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert unused_private_names(sources) == []


def imported_or_attribute_names(source: str) -> set[str]:
    """The names a module imports by name or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


# The public names that no src/ code and no acceptance test reads but that
# stay as documented entry points, each mapped to its reason
ENTRY_POINTS: dict[str, str] = {}

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def test_the_check_finds_an_unused_public_name():
    sources = {
        "a": (
            "import functools\n"
            "def unused():\n"
            "    return 0\n"
            "def helper():\n"
            "    return 1\n"
            "def caller():\n"
            "    return helper()\n"
            "def entry():\n"
            "    return 2\n"
            "class Kept:\n"
            "    size = 3\n"
            "    def method(self):\n"
            "        return 4\n"
            "    @functools.cached_property\n"
            "    def cached(self):\n"
            "        return 5\n"
            "    def again(self):\n"
            "        return self.again()\n"
            "    def legacy(self):\n"
            "        return 6\n"
            "    @property\n"
            "    def used(self):\n"
            "        return 7\n"
        ),
        "b": "from .a import Kept\nKept().used\n",
    }
    acceptance = "from spinoeqc.a import Kept\nKept().legacy()\n"
    admitted = imported_or_attribute_names(acceptance) | {"entry"}
    # `helper` is read only by `caller`, which nothing reads; a method read
    # only by itself is unused, and a public field is not checked
    assert unused_names(sources, admitted) == [
        "a: unused (line 2)", "a: helper (line 4)", "a: caller (line 6)",
        "a: Kept.method (line 12)", "a: Kept.cached (line 15)", "a: Kept.again (line 17)",
    ]
    # without the acceptance test's reads, `Kept.legacy` is unused too
    assert "a: Kept.legacy (line 19)" in unused_names(sources, {"entry"})


def test_package_uses_every_public_name():
    assert all(reason.strip() for reason in ENTRY_POINTS.values())
    # `__init__.py` only re-exports, which reads nothing
    sources = {path.name: path.read_text() for path in MODULES}
    admitted = imported_or_attribute_names(ACCEPTANCE.read_text()) | ENTRY_POINTS.keys()
    assert unused_names(sources, admitted) == []


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
