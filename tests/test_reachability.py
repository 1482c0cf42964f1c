"""Every public name and method under ``src/repro`` is something the paper's pipeline runs.

A walk over ``ast`` alone (``repro`` is never imported).  It starts at the entry points —
``repro.cli`` and every file under ``bench/``, ``benchmarks/`` and ``examples/`` — and
follows each identifier (a bare name or an attribute) into every top-level ``def`` /
``class`` of that name under ``src/repro``, decorators included, and into the module-level
statements of every module an import executes.  A class's public methods and properties
are walked one by one, each only once reached code reads an attribute of its name
(``obj.name``), so a method nobody calls reaches nothing.  An ``import`` binds a name but
does not use it, so a package's re-exports reach nothing by themselves.

The guard fails on an ``__all__`` entry the walk does not reach, and on a public method or
property of a reached top-level class that no reached code reads as an attribute.  Fix:
delete it (with its tests, or move it under ``tests/`` where a test uses it as an oracle or
fixture), or add it to ``_ALLOWED`` (``name`` or ``Class.method``) with the reason it stays.
"""

import ast
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_POINTS = [SRC / "repro" / "cli.py"] + sorted(
    path for folder in ("bench", "benchmarks", "examples") for path in (ROOT / folder).rglob("*.py")
)

# Public names and methods no entry point reaches, kept for a reason the walk cannot see.
_ALLOWED = {
    "reset_faults": "disarms the fault-injection seam the chaos suites arm",
    "configure_tracing": "the tracing seam test_obs drives",
    "active_collector": "reads back what the tracing seam collected",
    "tiny_unet_config": "the small U-Net the model-level test modules build",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_public_method(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")


def _module_name(src, path):
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(node, module, is_package, modules):
    """The modules under ``src`` an import statement executes, parent packages included."""
    if isinstance(node, ast.Import):
        targets = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:
            if module is None:  # a relative import outside src/ (bench's own modules)
                return set()
            package = module.split(".")[: None if is_package else -1]
            base = ".".join(package[: len(package) - node.level + 1] + ([node.module] if node.module else []))
        targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
    parts = [target.split(".") for target in targets]
    return {".".join(p[:i]) for p in parts for i in range(1, len(p) + 1)} & modules.keys()


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


@dataclass(frozen=True)
class Walk:
    modules: dict  # {module: (tree, is_package)}
    names: frozenset  # every identifier the walk reads, and every module it imports
    attributes: frozenset  # every attribute name reached code reads


def walk(src, entry_points):
    """Walk from ``entry_points`` through the modules under ``src``."""
    modules = {_module_name(src, path): (ast.parse(path.read_text()), path.name == "__init__.py")
               for path in sorted(src.rglob("*.py"))}
    definitions, methods = {}, {}
    for module, (tree, is_package) in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, _DEFS):
                definitions.setdefault(stmt.name, []).append((stmt, module, is_package))
                for item in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                    if _is_public_method(item):
                        methods.setdefault(item.name, []).append((item, module, is_package))
    names, attributes, walked, walked_attributes = set(), set(), set(), set()

    def visit(node, module, is_package, reads=True):
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                names.update(_imported_modules(sub, module, is_package, modules))
            elif reads and isinstance(sub, ast.Name):
                names.add(sub.id)
            elif reads and isinstance(sub, ast.Attribute):
                names.add(sub.attr)
                attributes.add(sub.attr)

    for path in entry_points:
        visit(ast.parse(path.read_text()), _module_name(src, path) if path.is_relative_to(src) else None, False)
    while names - walked or attributes - walked_attributes:
        for key in names - walked:  # an identifier, or the dotted name of an imported module
            walked.add(key)
            for stmt, module, is_package in definitions.get(key, ()):
                # A class is its decorators, bases and body, less the public methods: they wait for their attribute.
                for part in ast.iter_child_nodes(stmt):
                    if not (isinstance(stmt, ast.ClassDef) and _is_public_method(part)):
                        visit(part, module, is_package)
            if key in modules:
                tree, is_package = modules[key]
                for stmt in tree.body:
                    if not (isinstance(stmt, _DEFS) or _is_all(stmt)):
                        visit(stmt, key, is_package, reads=not isinstance(stmt, (ast.Import, ast.ImportFrom)))
        for key in attributes - walked_attributes:
            walked_attributes.add(key)
            for item, module, is_package in methods.get(key, ()):
                visit(item, module, is_package)
    return Walk(modules, frozenset(walked), frozenset(walked_attributes))


def public_names(modules):
    """``{module: (its __all__ entries, the names its top level binds)}``."""
    out = {}
    for module, (tree, _) in modules.items():
        exported, bound = [], set()
        for stmt in tree.body:
            if _is_all(stmt):
                exported = [elt.value for elt in stmt.value.elts]
            elif isinstance(stmt, _DEFS):
                bound.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound.update((alias.asname or alias.name).split(".")[0] for alias in stmt.names)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound.update(sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name))
        if exported:
            out[module] = (exported, bound)
    return out


def unreached(result):
    """``{path: exemption key}``: every ``module.name`` of an ``__all__`` entry the walk does not reach (a
    submodule entry counts once imported), and every ``module.Class.method`` of a reached top-level class
    that no reached code reads as an attribute."""
    out = {f"{module}.{name}": name for module, (exported, _) in public_names(result.modules).items()
           for name in exported if name not in result.names and f"{module}.{name}" not in result.names}
    for module, (tree, _) in result.modules.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name in result.names:
                out.update((f"{module}.{stmt.name}.{item.name}", f"{stmt.name}.{item.name}") for item in stmt.body
                           if _is_public_method(item) and item.name not in result.attributes)
    return out


@lru_cache(maxsize=None)
def _repo():
    return walk(SRC, ENTRY_POINTS)


def test_every_public_name_is_reached_from_an_entry_point():
    """Every ``__all__`` entry, and every public method and property of a reached class."""
    missing = sorted(path for path, key in unreached(_repo()).items() if key not in _ALLOWED)
    assert not missing, "public names and methods only tests reach:\n" + "\n".join(missing)


def test_the_exemptions_are_short_and_current():
    assert len(_ALLOWED) <= 8 and all(_ALLOWED.values())
    assert set(_ALLOWED) - set(unreached(_repo()).values()) == set(), "allowed names that are reached or gone"


def test_every_public_name_is_defined_in_its_module():
    modules = _repo().modules
    undefined = sorted(f"{module}.{name}" for module, (exported, bound) in public_names(modules).items()
                       for name in exported if name not in bound and f"{module}.{name}" not in modules)
    assert not undefined


def _small_tree(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    return walk(tmp_path / "src", [tmp_path / "entry.py"])


def test_the_walk_on_a_small_tree(tmp_path):
    """The guard itself, on a synthetic package: a method is reached through ``obj.name`` only,
    and the body of one nobody calls reaches nothing."""
    result = _small_tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/core.py": (
            "__all__ = ['Engine', 'helper', 'orphan']\n"
            "def helper():\n    return 1\n"
            "def orphan():\n    return 2\n"
            "class Engine:\n"
            "    def run(self):\n        return helper()\n"
            "    @property\n    def size(self):\n        return 3\n"
            "    def idle(self):\n        return orphan()\n"
            "    def _tick(self):\n        return 0\n"
        ),
        "entry.py": "from pkg.core import Engine\nidle = Engine()\nprint(idle.run(), idle.size)\n",
    })
    assert {"Engine", "helper", "pkg.core"} <= result.names and {"run", "size"} <= result.attributes
    # A bare name ``idle`` is not an attribute read, so ``Engine.idle`` stays unreached and so does ``orphan``.
    assert unreached(result) == {"pkg.core.orphan": "orphan", "pkg.core.Engine.idle": "Engine.idle"}


_CORE = "__all__ = ['used', 'spare']\ndef used():\n    return 1\ndef spare():\n    return 2\n"


@pytest.mark.parametrize(
    "files, expected",
    [
        pytest.param(  # an import binds a name; only a read of it reaches the definition
            {"src/pkg/__init__.py": "from .core import used, spare\n__all__ = ['used', 'spare']\n",
             "src/pkg/core.py": _CORE, "entry.py": "import pkg\npkg.used()\n"},
            {"pkg.spare": "spare", "pkg.core.spare": "spare"},
            id="re-export-alone-reaches-nothing",
        ),
        pytest.param(  # decorators and base classes are part of the class a read reaches
            {"src/pkg/__init__.py": "",
             "src/pkg/core.py": "__all__ = ['deco', 'Base', 'Leaf']\n"
                                "def deco(cls):\n    return cls\n"
                                "class Base:\n    pass\n"
                                "@deco\nclass Leaf(Base):\n    pass\n",
             "entry.py": "from pkg.core import Leaf\nLeaf()\n"},
            {},
            id="decorator-and-base-of-a-reached-class",
        ),
        pytest.param(  # an executed module's top-level statements read names; its defs wait to be read
            {"src/pkg/__init__.py": "", "src/pkg/core.py": _CORE + "DEFAULT = used()\n",
             "entry.py": "import pkg.core\n"},
            {"pkg.core.spare": "spare"},
            id="module-statements-run-on-import",
        ),
        pytest.param(  # an unreached class is one finding; its methods are not listed apart
            {"src/pkg/__init__.py": "",
             "src/pkg/core.py": "__all__ = ['Idle']\nclass Idle:\n    def go(self):\n        return 0\n",
             "entry.py": "import pkg.core\n"},
            {"pkg.core.Idle": "Idle"},
            id="methods-of-an-unreached-class",
        ),
        pytest.param(  # a method read as an attribute anywhere in reached code is reached, and walks on
            {"src/pkg/__init__.py": "",
             "src/pkg/core.py": "__all__ = ['Job', 'used', 'spare']\n" + _CORE.split("\n", 1)[1] +
                                "class Job:\n    def start(self):\n        return self.step()\n"
                                "    def step(self):\n        return used()\n",
             "entry.py": "from pkg.core import Job\nJob().start()\n"},
            {"pkg.core.spare": "spare"},
            id="method-chain-through-self",
        ),
        pytest.param(  # a relative import inside src/ executes the module it names
            {"src/pkg/__init__.py": "from . import core\n", "src/pkg/core.py": _CORE + "used()\n",
             "entry.py": "import pkg\n"},
            {"pkg.core.spare": "spare"},
            id="relative-import-executes-the-module",
        ),
    ],
)
def test_walk_rules_on_small_trees(tmp_path, files, expected):
    assert unreached(_small_tree(tmp_path, files)) == expected
