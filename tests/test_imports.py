"""The package exports the pipelines' API alone, every module of it uses
each name it imports, every name it defines is used, every parameter has
a caller that sets it, and no random draw goes around the seed.

No linter ships with the test dependencies, so these are the export check
(the package's own names are the settings, case, pipelines and errors a
pipeline caller needs; every other name is imported from its module), the
unused-import check (an imported name must appear as a name somewhere in
its module; `__init__.py` imports to re-export and is exempt), the
unused-name checks (a `_name`, at module level or in a class body, and a
public module-level name or public method must be read somewhere in
`src/` outside its own definition, so library code that only tests use
cannot hide there; a re-export in `__init__.py` is no read, and a public
name passes too if the acceptance test reads it or it is a documented
entry point), the parameter check (a defaulted parameter must be set by
some call in `src/` or in the acceptance test, and no parameter may be
passed only the literal None) and the seeding check: every draw is named
by a seed and a detection index, so no function takes a generator, and
nothing spawns child seeds or reads a generator's seed sequence."""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import spinoeqc

PACKAGE = sorted(Path(spinoeqc.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]
ROOT = Path(__file__).resolve().parent.parent

# what a pipeline caller needs: the settings and case it passes, the two
# pipelines and the errors it catches
PIPELINE_API = {
    "SpinSystemConfig", "SpinoeParams", "ScheduleMode", "DetectionSettings", "GroverCase",
    "run_effective_pure_pipeline", "run_grover_pipeline",
    "ReadoutError", "DecodeError", "SingularLabelingSystem", "UnequalizedLabeling",
}
# the names the package re-exported besides, each imported from its module
MODULE_ONLY = {
    "quantum": "DensityMatrix Unitary apply_unitary compose populations",
    "spins": (
        "Channel PermutationId PulseSpec enhanced_deviations enhanced_state "
        "permutation_pulse_sequence pulse_unitary thermal_state"
    ),
    "spinoe": "ExperimentSchedule enhancement_at make_schedule sample_initial_states",
    "labeling": (
        "EffectivePureResult LabelingPlan assemble_effective_pure choose_ground "
        "enhancement_factor label permute_populations solve_weights"
    ),
    "readout": (
        "Detector PeakTable Spectrum calibrate integrate_peaks probe readout_map "
        "reconstruct_diagonal"
    ),
    "experiments": "grover_circuit grover_diffusion grover_oracle",
}


def test_package_exports_the_pipelines_api():
    names = {
        name for name, value in vars(spinoeqc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PIPELINE_API
    assert spinoeqc.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_other_names_import_from_their_module(module):
    for name in MODULE_ONLY[module].split():
        assert hasattr(importlib.import_module(f"spinoeqc.{module}"), name)
        assert not hasattr(spinoeqc, name)


def test_package_readers_resolve():
    # the benchmark's `sq.` reads and the README's library sketch
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    bench = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "sq"
    }
    sketch = re.search(r"from spinoeqc import \(([^)]*)\)", (ROOT / "README.md").read_text())
    readme = {name.strip() for name in sketch[1].split(",") if name.strip()}
    assert len(bench) == 7 and len(readme) == 6
    assert bench | readme <= PIPELINE_API


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


def _functions(body: list[ast.stmt], owners: tuple = (), in_class: bool = False) -> list[tuple]:
    """Every function of a module `body`, nested ones too, as (qualified
    name, definition, whether a call binds its first parameter: a method
    that is no staticmethod)."""
    found = []
    for statement in body:
        if isinstance(statement, ast.ClassDef):
            found += _functions(statement.body, (*owners, statement.name), True)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(ast.unparse(d) == "staticmethod" for d in statement.decorator_list)
            name = ".".join((*owners, statement.name))
            found.append((name, statement, in_class and not static))
            found += _functions(statement.body, (*owners, statement.name))
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                nested = [s for s in getattr(statement, field, []) if isinstance(s, ast.AST)]
                found += _functions(nested, owners, in_class)
    return found


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _arguments(call: ast.Call, positional: list[str]) -> dict[str, ast.expr] | None:
    """The parameters `call` sets, each with its argument (for a `*`
    argument, the starred expression), or None when it spreads `**`,
    which may set any of them."""
    if any(keyword.arg is None for keyword in call.keywords):
        return None
    bound = {keyword.arg: keyword.value for keyword in call.keywords}
    for index, argument in enumerate(call.args):
        if isinstance(argument, ast.Starred):
            bound.update(dict.fromkeys(positional[index:], argument))
            break
        if index < len(positional):
            bound[positional[index]] = argument
    return bound


def _is_none(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def unset_parameters(sources: dict[str, str], callers: dict[str, str] | None = None,
                     allowed=frozenset()) -> list[str]:
    """The parameters of the functions and methods of the modules `sources`
    (name -> source) that their callers leave to one value, in module and
    line order, each as `module.function(parameter)` with its line.

    A function is matched to every call of its name (`f(...)` or
    `x.f(...)`) outside its own body, in `sources` or in the modules
    `callers`; a call binds a method's first parameter unless it is a
    staticmethod. A function that no call names, such as one reached
    through a table, is skipped, as are the parameters in `allowed`.
    Rule A: a defaulted parameter that no call sets, by keyword, by
    position or through `*` or `**`, is unset. Rule B: a parameter that
    every call in `sources` passes as the literal None, explicitly or
    through a default of None, is only ever None."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    # every call, with whether it is in `sources`
    owned = [(tree, True) for tree in trees.values()]
    owned += [(ast.parse(source), False) for source in (callers or {}).values()]
    calls = [(own, node) for tree, own in owned for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    found = []
    for module, tree in trees.items():
        for name, function, bound_first in _functions(tree.body):
            inside = {id(node) for node in ast.walk(function)}
            named = [(own, call) for own, call in calls
                     if _callee(call) == function.name and id(call) not in inside]
            if not named:
                continue
            a = function.args
            positional = [arg.arg for arg in (*a.posonlyargs, *a.args)][bound_first:]
            defaults = dict(zip(reversed([arg.arg for arg in (*a.posonlyargs, *a.args)]),
                                reversed(a.defaults)))
            defaults.update({arg.arg: d for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d})
            bindings = [(own, _arguments(call, positional)) for own, call in named]
            for parameter in (*positional, *(arg.arg for arg in a.kwonlyargs)):
                key = f"{module}.{name}({parameter})"
                if key in allowed:
                    continue
                if parameter in defaults and not any(
                    bound is None or parameter in bound for _, bound in bindings
                ):
                    found.append(f"{key} (line {function.lineno}): no call sets it")
                # what each call in `sources` binds to it: its argument, else
                # its default; None (no expression) where `**` may bind any
                values = [
                    None if bound is None else bound.get(parameter, defaults.get(parameter))
                    for own, bound in bindings if own
                ]
                if values and all(map(_is_none, values)):
                    found.append(f"{key} (line {function.lineno}): only ever None")
    return found


# The parameters that no src/ call and no acceptance test sets but that stay
# as entry points, each mapped to its reason
PARAMETER_ENTRY_POINTS = {
    "cli.main(argv)": "the command line's entry point: the tests and the benchmark, "
                      "outside src/, pass their argument lists; the console passes none",
}


def test_the_check_finds_an_unset_parameter():
    sources = {
        "a": (
            "def never(x, n=1):\n"
            "    return never(x, n=2)\n"
            "def keyword(x, n=1):\n"
            "    return x\n"
            "def position(x, n=1, *, m=2):\n"
            "    return x\n"
            "def spread(x, n=1, *, m=2):\n"
            "    return x\n"
            "def starred(x, n=1):\n"
            "    return x\n"
            "def accepted(x, n=1):\n"
            "    return x\n"
            "def tabled(x, n=1):\n"
            "    return x\n"
            "def entry(x, argv=None):\n"
            "    return x\n"
            "class K:\n"
            "    def noise(self, y, z):\n"
            "        return y\n"
            "    @classmethod\n"
            "    def make(cls, i, d=4):\n"
            "        return cls()\n"
            "    @staticmethod\n"
            "    def pure(i, d=4):\n"
            "        return i\n"
        ),
        "b": (
            "from .a import *\n"
            "TABLE = {'t': tabled}\n"
            "never(0)\n"
            "keyword(0, n=3)\n"
            "position(0, 3, m=4)\n"
            "spread(0, **{'n': 3, 'm': 4})\n"
            "starred(*[0, 3])\n"
            "accepted(0)\n"
            "entry(0)\n"
            "K().noise(1, None)\n"
            "K().noise(2, z=None)\n"
            "K.make(0)\n"
            "K.pure(0, 4)\n"
        ),
    }
    acceptance = {"test_acceptance": "from spinoeqc.a import accepted\naccepted(0, 5)\n"}
    # `never` setting its own default is no caller; `tabled` is never called
    # by name; a classmethod's call binds `cls`, a staticmethod's does not
    assert unset_parameters(sources, acceptance, {"a.entry(argv)"}) == [
        "a.never(n) (line 1): no call sets it",
        "a.K.noise(z) (line 18): only ever None",
        "a.K.make(d) (line 21): no call sets it",
    ]
    # without the acceptance module `accepted(n)` is unset, and without the
    # allow-list `entry(argv)` breaks both rules
    assert unset_parameters(sources) == [
        "a.never(n) (line 1): no call sets it",
        "a.accepted(n) (line 11): no call sets it",
        "a.entry(argv) (line 15): no call sets it",
        "a.entry(argv) (line 15): only ever None",
        "a.K.noise(z) (line 18): only ever None",
        "a.K.make(d) (line 21): no call sets it",
    ]


def test_package_sets_every_parameter():
    assert all(reason.strip() for reason in PARAMETER_ENTRY_POINTS.values())
    sources = {path.stem: path.read_text() for path in MODULES}
    callers = {ACCEPTANCE.stem: ACCEPTANCE.read_text()}
    assert unset_parameters(sources, callers, PARAMETER_ENTRY_POINTS.keys()) == []


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
