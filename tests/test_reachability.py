"""Every public name, method and knob under ``src/repro`` is something the paper's pipeline runs or sets.

A walk over ``ast`` alone (``repro`` is never imported).  It starts at the entry points —
``repro.cli`` and every file under ``bench/`` and ``examples/`` — and follows each identifier
(a bare name or an attribute) into every top-level ``def`` / ``class`` of that name under
``src/repro``, decorators included, and into the module-level statements of every module an
import executes.  A class's public methods and properties are walked one by one, each only once
reached code reads an attribute of its name (``obj.name``), so a method nobody calls reaches
nothing.  An ``import`` binds a name but does not use it, so a package's re-exports reach
nothing by themselves.  Every call in reached code is recorded on the way.

The guard fails on an ``__all__`` entry the walk does not reach, and on a public method or
property of a reached top-level class that no reached code reads as an attribute.  It also
fails on a *knob* no reached call sets: a defaulted parameter of a reached function or method,
or a defaulted field of a reached dataclass (:func:`unset_knobs` has the rules).  Fix: delete
it (with its tests, or move it under ``tests/`` where a test uses it as an oracle, fixture or
helper); make a knob a module constant that tests monkeypatch, or delete it with the branch it
selected; or add it to ``_ALLOWED`` (``name``, ``Class.method`` or ``func(param=)``) with the
reason it stays.  Deployment settings stay settable through CLI flags and environment variables.
"""

import ast
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_POINTS = [SRC / "repro" / "cli.py"] + sorted(
    path for folder in ("bench", "examples") for path in (ROOT / folder).rglob("*.py")
)

# Public names, methods and knobs no entry point reaches or sets, kept for a reason the walk cannot see.
_ALLOWED = {
    "reset_faults": "disarms the fault-injection seam the chaos suites arm",
    "tiny_unet_config": "the small U-Net the model-level test modules build",
    "CircuitBreaker(clock=)": "the fake clock the breaker tests step through open, half-open and closed",
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
class Call:
    callee: str  # the bare name or attribute called; ``super:Class`` for ``super().__init__`` inside ``Class``
    positional: int  # positional arguments passed
    keywords: frozenset  # keyword arguments passed
    splat: bool  # a ``*args`` or ``**options`` splat, which may set any parameter
    forwards: str | None = None  # the callee name of the function whose own ``**kwargs`` this call passes on


@dataclass(frozen=True)
class Walk:
    modules: dict  # {module: (tree, is_package)}
    names: frozenset  # every identifier the walk reads, and every module it imports
    attributes: frozenset  # every attribute name reached code reads
    calls: frozenset  # every call reached code makes
    assigned: frozenset  # every attribute name reached code assigns
    handed: frozenset  # every bare name or attribute reached code passes as an argument


def _nodes(node, function):
    """Every node under ``node``, with the innermost function it sits in (``function`` outside any)."""
    stack = [(node, function)]
    while stack:
        sub, function = stack.pop()
        yield sub, function
        inner = sub if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        stack.extend((child, inner) for child in ast.iter_child_nodes(sub))


def _decorated(function, name):
    return any(getattr(d, "id", None) == name for d in function.decorator_list)


def _literal_keys(function, value):
    """The keys a ``**value`` splat passes when ``function`` binds ``value`` to a ``dict(...)`` of keywords or a
    literal of string keys, else ``None``."""
    for stmt in ast.walk(function) if function and isinstance(value, ast.Name) else ():
        if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == [value.id]:
            bound = stmt.value
            if isinstance(bound, ast.Call) and getattr(bound.func, "id", None) == "dict" and not bound.args:
                return frozenset(k.arg for k in bound.keywords) if all(k.arg for k in bound.keywords) else None
            if isinstance(bound, ast.Dict) and all(isinstance(k, ast.Constant) for k in bound.keys):
                return frozenset(k.value for k in bound.keys)
    return None


def _call(node, cls, function):
    """The :class:`Call` an ``ast.Call`` makes inside ``function`` of class ``cls`` (either may be ``None``),
    or ``None`` if its callee has no name.  A classmethod's ``cls(...)`` and ``type(self)(...)`` call the
    enclosing class, and ``partial(f, ...)`` calls ``f``."""
    func, args = node.func, node.args
    if isinstance(func, ast.Name) and func.id == "partial" and args:
        func, args = args[0], args[1:]
    own = function.args if function else None
    if isinstance(func, ast.Name):
        is_cls = cls and own and own.args and _decorated(function, "classmethod") and func.id == own.args[0].arg
        callee = cls if is_cls else func.id
    elif isinstance(func, ast.Attribute):
        is_super = isinstance(func.value, ast.Call) and getattr(func.value.func, "id", None) == "super"
        callee = f"super:{cls}" if is_super and func.attr == "__init__" else func.attr
    elif isinstance(func, ast.Call) and getattr(func.func, "id", None) == "type" and cls:
        callee = cls
    else:
        return None
    keywords = frozenset(k.arg for k in node.keywords if k.arg)
    splats = []
    for value in (k.value for k in node.keywords if k.arg is None):
        known = _literal_keys(function, value)
        keywords |= known or frozenset()
        if known is None:
            splats.append(value)
    forwarded = own and own.kwarg and any(getattr(v, "id", None) == own.kwarg.arg for v in splats)
    splat = any(isinstance(a, ast.Starred) for a in args) or (bool(splats) and not forwarded)
    forwards = (cls if function.name == "__init__" else function.name) if forwarded else None
    return Call(callee, sum(not isinstance(a, ast.Starred) for a in args), keywords, splat, forwards)


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
                        methods.setdefault(item.name, []).append((item, module, is_package, stmt.name))
    names, attributes, walked, walked_attributes = set(), set(), set(), set()
    calls, assigned, handed = set(), set(), set()

    def visit(node, module, is_package, reads=True, cls=None, function=None):
        for sub, inner in _nodes(node, function) if reads else ():
            call = _call(sub, cls, inner) if isinstance(sub, ast.Call) else None
            if isinstance(sub, ast.Call):
                calls.add(call)
                handed.update(getattr(arg, "id", getattr(arg, "attr", None)) for arg in sub.args + [k.value for k in sub.keywords])
            # A ``__post_init__`` that normalises a field in place does not make it state.
            if getattr(inner, "name", None) != "__post_init__":
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    assigned.add(sub.attr)
                if call and call.callee in ("setattr", "__setattr__") and len(sub.args) > 1:
                    assigned.add(getattr(sub.args[1], "value", None))
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
                cls = stmt.name if isinstance(stmt, ast.ClassDef) else None
                function = None if cls else stmt
                for part in ast.iter_child_nodes(stmt):
                    if not (cls and _is_public_method(part)):
                        visit(part, module, is_package, cls=cls, function=function)
            if key in modules:
                tree, is_package = modules[key]
                for stmt in tree.body:
                    if not (isinstance(stmt, _DEFS) or _is_all(stmt)):
                        visit(stmt, key, is_package, reads=not isinstance(stmt, (ast.Import, ast.ImportFrom)))
        for key in attributes - walked_attributes:
            walked_attributes.add(key)
            for item, module, is_package, cls in methods.get(key, ()):
                visit(item, module, is_package, cls=cls)
    return Walk(modules, frozenset(walked), frozenset(walked_attributes), frozenset(calls - {None}), frozenset(assigned),
                frozenset(handed))


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


def _is_dataclass(stmt):
    return any(getattr(d, "id", None) == "dataclass" or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in stmt.decorator_list)


def _fields(stmt):
    """``[(name, has_default)]``: the ``__init__`` fields of a dataclass, in order."""
    out = []
    for item in stmt.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        options = {k.arg: k.value for k in value.keywords} if isinstance(value, ast.Call) and getattr(
            value.func, "id", None) == "field" else None
        if options is not None and getattr(options.get("init"), "value", True) is False:
            continue
        out.append((item.target.id, value is not None and (options is None or bool({"default", "default_factory"} & set(options)))))
    return out


def _parameters(func, is_method):
    """``[(name, index, has_default)]``: a function's parameters a caller passes, ``index`` the positional slot
    (``None`` for keyword-only)."""
    args = func.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
    skip = 1 if is_method and not static else 0
    defaults = [False] * (len(positional) - len(args.defaults)) + [True] * len(args.defaults)
    out = [(a.arg, i - skip, d) for i, (a, d) in enumerate(zip(positional, defaults)) if i >= skip]
    out += [(a.arg, None, d is not None) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return out


def unset_knobs(result):
    """``{path: exemption key}``: every defaulted parameter of a reached function or method, and every defaulted
    field of a reached dataclass, that no call in reached code sets — by keyword, by position, through a
    ``*`` / ``**`` splat (which is how ``from_dict`` sets a config's fields) or, for a field, ``replace(obj, field=)``.  A constructor is called through
    its class's name, a subclass without its own ``__init__``, ``cls(...)`` / ``type(self)(...)`` inside the
    class, or ``super().__init__`` in a subclass; a method through any attribute of its name.  Leading-``_``
    parameters and fields are private, and a field that reached code assigns (``obj.field = ...``) is state:
    neither is a knob.  Nor is a parameter whose callers the walk cannot name: of a function, class or method
    that reached code only hands on as an argument and never calls by name (a callback,
    ``MicroBatcher(classifier.predict_batch)``), or of a dunder other than ``__init__`` (Python calls it).
    Paths read ``module.func(param=)``, ``module.Class.method(param=)``,
    ``module.Class(param=)`` for ``__init__``, and ``module.Class.field``."""
    subclasses = {}
    for stmt in (stmt for tree, _ in result.modules.values() for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
        for base in stmt.bases:
            subclasses.setdefault(getattr(base, "id", getattr(base, "attr", None)), []).append(stmt)

    def constructors(name):
        out = {name}
        for sub in subclasses.get(name, ()):
            out.add(f"super:{sub.name}")
            if not any(isinstance(i, ast.FunctionDef) and i.name == "__init__" for i in sub.body) and not _is_dataclass(sub):
                out |= constructors(sub.name)
        return out

    by_callee = {}
    for call in result.calls:
        by_callee.setdefault(call.callee, []).append(call)
    callbacks = result.handed - set(by_callee)

    def sets(call, name, index, seen=frozenset()):
        if call.splat or name in call.keywords or (index is not None and call.positional > index):
            return True
        return call.forwards not in seen and any(  # passed on from the caller's own ``**kwargs``
            sets(outer, name, None, seen | {call.forwards}) for outer in by_callee.get(call.forwards, ()))

    def unset(callees, name, index, also=()):
        return not name.startswith("_") and not any(
            sets(call, name, index) for callee in callees for call in by_callee.get(callee, ())) and not any(
            name in call.keywords for call in also)

    out = {}
    for module, (tree, _) in result.modules.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name in result.names - callbacks:
                out.update((f"{module}.{stmt.name}({name}=)", f"{stmt.name}({name}=)")
                           for name, index, default in _parameters(stmt, False)
                           if default and unset([stmt.name], name, index))
            if not (isinstance(stmt, ast.ClassDef) and stmt.name in result.names):
                continue
            if _is_dataclass(stmt):
                replaces = by_callee.get("replace", ())
                out.update((f"{module}.{stmt.name}.{name}", f"{stmt.name}.{name}")
                           for index, (name, default) in enumerate(_fields(stmt))
                           if default and name not in result.assigned
                           and unset(constructors(stmt.name), name, index, also=replaces))
            for item in stmt.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    callees, label = constructors(stmt.name), f"{stmt.name}"
                    if stmt.name in callbacks:
                        continue
                elif item.name.startswith("__") or item.name in callbacks or (
                        _is_public_method(item) and item.name not in result.attributes):
                    continue
                else:
                    callees, label = [item.name], f"{stmt.name}.{item.name}"
                out.update((f"{module}.{label}({name}=)", f"{label}({name}=)")
                           for name, index, default in _parameters(item, True)
                           if default and unset(callees, name, index))
    return out


@lru_cache(maxsize=None)
def _repo():
    return walk(SRC, ENTRY_POINTS)


def test_every_public_name_is_reached_from_an_entry_point():
    """Every ``__all__`` entry, and every public method and property of a reached class."""
    missing = sorted(path for path, key in unreached(_repo()).items() if key not in _ALLOWED)
    assert not missing, "public names and methods only tests reach:\n" + "\n".join(missing)


def test_every_knob_has_a_caller():
    """Every defaulted parameter of a reached function and defaulted field of a reached dataclass: a setting
    only tests set is a module constant (tests monkeypatch it), or it goes with the branch it selected."""
    missing = sorted(path for path, key in unset_knobs(_repo()).items() if key not in _ALLOWED)
    assert not missing, "settings no pipeline caller sets:\n" + "\n".join(missing)


def test_the_exemptions_are_short_and_current():
    assert len(_ALLOWED) <= 8 and all(_ALLOWED.values())
    found = set(unreached(_repo()).values()) | set(unset_knobs(_repo()).values())
    assert set(_ALLOWED) - found == set(), "allowed names or knobs that are reached, set or gone"


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


_KNOBS = (
    "from dataclasses import dataclass\n"
    "__all__ = ['scale', 'Filter', 'Spec', 'build', 'fire', 'Worker', 'Base', 'Leaf']\n"
    "def scale(x, factor=2, *, bias=0.0, _cache=None):\n    return x * factor + bias\n"
    "@dataclass\nclass Spec:\n    size: int\n    depth: int = 3\n    seed: int = 0\n    hits: int = 0\n"
    "    @classmethod\n    def small(cls):\n        return cls(8, depth=1)\n"
    "class Filter:\n    def __init__(self, k=5, gain=1.0):\n        self.k = k\n"
    "    def apply(self, x, mode='fast'):\n        return x\n"
    "    def __call__(self, x, strict=False):\n        return x\n"
    "def build(**options):\n    return Filter(**options)\n"
    "def fire(callback, retries=3):\n    return callback()\n"
    "class Worker:\n    def run(self, wait=1.0):\n        return wait\n"
    "class Base:\n    def __init__(self, rate=0.1, limit=4):\n        self.rate = rate\n"
    "class Leaf(Base):\n    def __init__(self):\n        super().__init__(0.2)\n"
)


def test_the_knob_walk_on_a_small_tree(tmp_path):
    """The knob half of the guard on a synthetic package: a default is set by keyword, by position, through a
    caller's own ``**options``, by a classmethod's ``cls(...)`` or a ``super().__init__``; private parameters,
    state a caller assigns, dunders Python calls and callbacks handed on are no knobs."""
    result = _small_tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/core.py": _KNOBS,
        "entry.py": "from pkg.core import *\n"
                    "scale(1, 3)\nspec = Spec.small()\nspec.hits += 1\n"
                    "build(k=3)\nFilter(gain=2.0).apply(1)\nfire(Worker().run)\nLeaf()\n",
    })
    assert unset_knobs(result) == {
        "pkg.core.scale(bias=)": "scale(bias=)",
        "pkg.core.Spec.seed": "Spec.seed",
        "pkg.core.Filter.apply(mode=)": "Filter.apply(mode=)",
        "pkg.core.fire(retries=)": "fire(retries=)",
        "pkg.core.Base(limit=)": "Base(limit=)",
    }


_DATA = "from dataclasses import dataclass, field\nfrom typing import ClassVar\n"


@pytest.mark.parametrize(
    "core, entry, expected",
    [
        pytest.param("def f(x, a=1, b=2):\n    return x\n", "f(0, b=3)\n", {"f(a=)"},
                     id="a-keyword-sets-its-default"),
        pytest.param("def f(x, a=1, b=2):\n    return x\n", "f(0, 5)\n", {"f(b=)"},
                     id="a-position-sets-its-default"),
        pytest.param("def f(*items, a=1):\n    return items\n", "f(1, 2, 3)\n", {"f(a=)"},
                     id="positions-never-reach-a-keyword-only-default"),
        pytest.param("def f(x, a=1, b=2):\n    return x\n", "args = (0, 1, 2)\nf(*args)\n", set(),
                     id="a-star-splat-may-set-every-default"),
        pytest.param("class Tool:\n    @staticmethod\n    def make(a=1, b=2):\n        return a\n",
                     "Tool.make(5)\n", {"Tool.make(b=)"},
                     id="a-staticmethod-has-no-self-slot"),
        pytest.param("def f(a=1, b=2):\n    return a\ndef g():\n    opts = dict(a=3)\n    return f(**opts)\n",
                     "g()\n", {"f(b=)"}, id="a-local-dict-splat-sets-its-keys-only"),
        pytest.param("def f(a=1, b=2):\n    return a\ndef g():\n    opts = {'b': 3}\n    return f(**opts)\n",
                     "g()\n", {"f(a=)"}, id="a-local-literal-splat-sets-its-keys-only"),
        pytest.param(_DATA + "@dataclass\nclass Config:\n    size: int = 8\n    depth: int = 3\n"
                             "    @classmethod\n    def from_dict(cls, data):\n"
                             "        return cls(**{k: data[k] for k in data})\n",
                     "Config.from_dict({})\n", set(), id="from-dict-sets-every-field"),
        pytest.param("def f(a=1, b=2):\n    return a\ndef build(**options):\n    return f(**options)\n",
                     "build(a=0)\n", {"f(b=)"}, id="forwarded-kwargs-set-what-the-outer-caller-passes"),
        pytest.param("class Spec:\n    def __init__(self, size=8, depth=3):\n        self.size = size\n"
                     "    @classmethod\n    def small(cls):\n        return cls(depth=1)\n",
                     "Spec.small()\n", {"Spec(size=)"}, id="a-classmethod-cls-call-constructs-its-class"),
        pytest.param("class Spec:\n    def __init__(self, size=8, depth=3):\n        self.size = size\n"
                     "    def resized(self):\n        return type(self)(size=2)\n",
                     "Spec().resized()\n", {"Spec(depth=)"}, id="a-type-of-self-call-constructs-its-class"),
        pytest.param("class Base:\n    def __init__(self, rate=0.1, limit=4):\n        self.rate = rate\n"
                     "class Leaf(Base):\n    def __init__(self):\n        super().__init__(limit=2)\n",
                     "Leaf()\n", {"Base(rate=)"}, id="super-init-sets-the-base-defaults"),
        pytest.param("class Base:\n    def __init__(self, rate=0.1, limit=4):\n        self.rate = rate\n"
                     "class Leaf(Base):\n    pass\n",
                     "Leaf(rate=0.2)\n", {"Base(limit=)"}, id="a-subclass-without-init-constructs-its-base"),
        pytest.param("def f(x, a=1, b=2):\n    return x\n",
                     "from functools import partial\ng = partial(f, 0, b=3)\ng()\n", {"f(a=)"},
                     id="partial-calls-its-first-argument"),
        pytest.param(_DATA + "@dataclass\nclass Spec:\n    size: int = 8\n    depth: int = 3\n",
                     "from dataclasses import replace\nreplace(Spec(), depth=1)\n", {"Spec.size"},
                     id="replace-sets-a-dataclass-field"),
        pytest.param("def f(a=1, _cache=None):\n    return a\n", "f(a=2)\n", set(),
                     id="a-private-parameter-is-no-knob"),
        pytest.param(_DATA + "@dataclass\nclass Stats:\n    hits: int = 0\n    misses: int = 0\n"
                             "    lag: float = 0.0\n",
                     "s = Stats()\ns.hits += 1\nsetattr(s, 'lag', 1.0)\n", {"Stats.misses"},
                     id="a-field-reached-code-assigns-is-state"),
        pytest.param(_DATA + "@dataclass\nclass Spec:\n    depth: int = 3\n"
                             "    def __post_init__(self):\n        self.depth = int(self.depth)\n",
                     "Spec()\n", {"Spec.depth"}, id="a-field-post-init-normalises-stays-a-knob"),
        pytest.param(_DATA + "@dataclass\nclass Spec:\n    size: int = 8\n"
                             "    tags: list = field(default_factory=list)\n"
                             "    cache: dict = field(default_factory=dict, init=False)\n"
                             "    KIND: ClassVar[str] = 'spec'\n",
                     "Spec(size=2)\n", {"Spec.tags"}, id="only-init-fields-are-knobs"),
        pytest.param("class Filter:\n    def __call__(self, x, strict=False):\n        return x\n",
                     "Filter()(1)\n", set(), id="a-dunder-python-calls-has-no-knobs"),
        pytest.param("def run(wait=1.0):\n    return wait\ndef fire(callback):\n    return callback()\n",
                     "fire(run)\n", set(), id="a-callback-handed-on-has-no-knobs"),
        pytest.param("def run(wait=1.0):\n    return wait\ndef fire(callback):\n    return callback()\n",
                     "fire(run)\nrun()\n", {"run(wait=)"}, id="a-callback-also-called-by-name-has-knobs"),
        pytest.param("def used(a=1):\n    return a\ndef spare(b=2):\n    return b\n", "used(a=1)\n", set(),
                     id="an-unreached-function-has-no-knobs"),
        pytest.param("class A:\n    def run(self, n=1):\n        return n\n"
                     "class B:\n    def run(self, n=1):\n        return n\n",
                     "A().run(n=2)\nB()\n", set(), id="a-method-is-set-through-any-call-of-its-name"),
    ],
)
def test_knob_rules_on_small_trees(tmp_path, core, entry, expected):
    """One rule of :func:`unset_knobs` per case: what sets a default, and what is no knob."""
    result = _small_tree(tmp_path, {"src/pkg/__init__.py": "", "src/pkg/core.py": core,
                                    "entry.py": "from pkg.core import *\n" + entry})
    assert unset_knobs(result) == {f"pkg.core.{key}": key for key in expected}
