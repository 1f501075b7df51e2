"""Every package module is reached from an entry point.

A static walk of the import graph (``ast`` only, no Ray, no import of the
package) starts from the repo's non-test entry points -- ``bench.py``,
``__ray_entry__.py``, ``jobs/*.py``, ``scripts/*.py`` and
``tilebench/*.py`` -- and follows absolute and relative imports,
function-level ones included.  A module that only its own tests import
fails the test.  The only exceptions are the modules named in
``AWAITING_CUT``, which are still tested but scheduled for deletion; the
set must match exactly, so it can only shrink as they go.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "biomass_processing_pipeline_ray"

# Unreached modules kept, with their tests, until the next cut.
AWAITING_CUT = {
    "sources.audio",
    "sources.video",
    "stages.incremental",
    "stages.profile",
    "stages.windows",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(ROOT).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _package_modules() -> dict[str, Path]:
    return {_module_name(p): p for p in sorted((ROOT / PKG).rglob("*.py"))}


def _entry_files() -> list[Path]:
    files = [ROOT / "bench.py", ROOT / "__ray_entry__.py"]
    for d in ("jobs", "scripts", "tilebench"):
        files += sorted((ROOT / d).glob("*.py"))
    return files


def _imported(path: Path) -> set[str]:
    """Dotted names ``path`` imports anywhere in its body, with the
    parent packages each import executes.  ``from X import y`` yields
    both ``X`` and ``X.y``, since ``y`` may be a submodule."""
    tree = ast.parse(path.read_text(), filename=str(path))
    here = _module_name(path).split(".")
    if path.name != "__init__.py":
        here.pop()
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = here[: len(here) - node.level + 1] if node.level else []
            mod = ".".join(base + ([node.module] if node.module else []))
            names.add(mod)
            names.update(f"{mod}.{a.name}" for a in node.names)
    out = set()
    for n in names:
        parts = n.split(".")
        out.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return out


def _reached(modules: dict[str, Path]) -> set[str]:
    seen: set[str] = set()
    todo = _entry_files()
    while todo:
        for dep in _imported(todo.pop()) & modules.keys() - seen:
            seen.add(dep)
            todo.append(modules[dep])
    return seen


def test_every_package_module_is_reached():
    modules = _package_modules()
    unreached = sorted(
        m.removeprefix(PKG + ".") for m in modules.keys() - _reached(modules)
    )
    assert set(unreached) == AWAITING_CUT, (
        f"modules no entry point imports: {unreached}; "
        f"awaiting the cut: {sorted(AWAITING_CUT)}"
    )
