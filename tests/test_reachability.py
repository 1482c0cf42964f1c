"""Every public name under ``src/repro`` is something the paper's pipeline runs.

A name-level walk over ``ast`` alone (``repro`` is never imported).  It starts at the
entry points — ``repro.cli`` and every file under ``bench/``, ``benchmarks/`` and
``examples/`` — and follows each identifier (a bare name or an attribute) into every
top-level ``def`` / ``class`` of that name under ``src/repro``, decorators included, and
into the module-level statements of every module an import executes.  A class is walked
whole: methods are not tracked one by one.  An ``import`` binds a name but does not use
it, so a package's re-exports reach nothing by themselves.

When the guard fails, delete the name (with its tests, or move it under ``tests/`` where
a test uses it as an oracle or fixture), or add it to ``_ALLOWED`` with the reason it stays.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_POINTS = [SRC / "repro" / "cli.py"] + sorted(
    path for folder in ("bench", "benchmarks", "examples") for path in (ROOT / folder).rglob("*.py")
)

# Public names no entry point reaches, kept for a reason the walk cannot see.
_ALLOWED = {
    "reset_faults": "disarms the fault-injection seam the chaos suites arm",
    "configure_tracing": "the tracing seam test_obs drives",
    "active_collector": "reads back what the tracing seam collected",
    "tiny_unet_config": "the small U-Net the model-level test modules build",
}

# Unreached names that are still the subject of tests of their own.  Each leaves together
# with its tests; the set only shrinks (an entry that is deleted or becomes reached fails
# ``test_the_exemptions_are_short_and_current`` until it is taken off).
_STILL_TESTED = frozenset({
    "CalibrationResult", "calibrate_hsv_ranges",  # labeling/calibration.py
    "absdiff", "apply_mask", "bitwise_and", "bitwise_not", "bitwise_or",  # imops/arithmetic.py
    "min_max_normalize", "saturating_add", "saturating_subtract",
    "gray_to_rgb", "hsv_to_rgb", "merge_channels", "rgb_to_gray", "split_channels",  # imops/color.py
    "bilateral_filter", "box_filter",  # imops/filters.py
    "adaptive_mean_threshold", "threshold_binary", "threshold_binary_inv",  # imops/threshold.py
    "threshold_tozero", "threshold_tozero_inv", "threshold_truncate",
    "pad_to_multiple", "resize_bilinear", "resize_nearest",  # imops/resize.py
    "fill_holes", "morph_open",  # imops/morphology.py
    "augment_pair", "labels_to_onehot", "smooth_blobs", "color_to_class_map",  # data/, classes.py
    "amdahl_speedup", "iou_score",  # metrics/
})

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): (ast.parse(path.read_text()), path.name == "__init__.py")
           for path in sorted((SRC / "repro").rglob("*.py"))}


def _imported_modules(node, module, is_package):
    """The ``repro`` modules an import statement executes, parent packages included."""
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
    return {".".join(p[:i]) for p in parts for i in range(1, len(p) + 1)} & MODULES.keys()


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


@lru_cache(maxsize=None)
def reached():
    """Every identifier the walk from the entry points reads, and every module it imports."""
    definitions = {}
    for module, (tree, is_package) in MODULES.items():
        for stmt in tree.body:
            if isinstance(stmt, _DEFS):
                definitions.setdefault(stmt.name, []).append((stmt, module, is_package))
    names, walked = set(), set()

    def visit(node, module, is_package, reads=True):
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                names.update(_imported_modules(sub, module, is_package))
            elif reads and isinstance(sub, (ast.Name, ast.Attribute)):
                names.add(sub.id if isinstance(sub, ast.Name) else sub.attr)

    for path in ENTRY_POINTS:
        visit(ast.parse(path.read_text()), _module_name(path) if path.is_relative_to(SRC) else None, False)
    while names - walked:
        for key in names - walked:  # an identifier, or the dotted name of an imported module
            walked.add(key)
            for stmt, module, is_package in definitions.get(key, ()):
                visit(stmt, module, is_package)
            if key in MODULES:
                tree, is_package = MODULES[key]
                for stmt in tree.body:
                    if not (isinstance(stmt, _DEFS) or _is_all(stmt)):
                        visit(stmt, key, is_package, reads=not isinstance(stmt, (ast.Import, ast.ImportFrom)))
    return frozenset(walked)


@lru_cache(maxsize=None)
def public_names():
    """``{module: (its __all__ entries, the names its top level binds)}``."""
    out = {}
    for module, (tree, _) in MODULES.items():
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


def _unreached():
    """``module.name`` of every ``__all__`` entry the walk does not reach (a submodule entry counts once imported)."""
    return {f"{module}.{name}": name for module, (exported, _) in public_names().items() for name in exported
            if name not in reached() and f"{module}.{name}" not in reached()}


def test_every_public_name_is_reached_from_an_entry_point():
    unreached = sorted(path for path, name in _unreached().items() if name not in _ALLOWED and name not in _STILL_TESTED)
    assert not unreached, "public names only tests reach:\n" + "\n".join(unreached)


def test_the_exemptions_are_short_and_current():
    assert len(_ALLOWED) <= 8 and all(_ALLOWED.values())
    unreached = set(_unreached().values())
    assert set(_ALLOWED) - unreached == set(), "allowed names that are reached or no longer exported"
    assert _STILL_TESTED - unreached == set(), "take these off _STILL_TESTED: deleted, or reached now"


def test_every_public_name_is_defined_in_its_module():
    undefined = sorted(f"{module}.{name}" for module, (exported, bound) in public_names().items() for name in exported
                       if name not in bound and f"{module}.{name}" not in MODULES)
    assert not undefined
