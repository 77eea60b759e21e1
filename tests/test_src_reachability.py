"""src/spircr holds no code that only tests or the benchmark reach.

The source is read with ast; nothing is imported and no process starts.
Two scans, each with an allowlist that must equal what it finds:

  * a top-level function, class or constant of a module that nothing in
    src/spircr names, apart from its own definition and __init__.py's
    re-exports;
  * a name a module imports and never uses.

Each entry names the reader that keeps it. An entry leaves its list in the
change that makes the name referenced or deletes it, so the lists are the
to-do list of ROADMAP item 8.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spircr"

UNREFERENCED = {
    "audit.query_distribution": "tests/test_acceptance.py",
    "wire.decode_frame": "tests/test_acceptance.py",
    "plan.build_pir_plan": "perfbench/tracing.py and tests",
}
UNUSED_IMPORTS = {
    "scheme.build_pir_plan": "perfbench/tracing.py wraps scheme.build_pir_plan",
    "audit.assign_common_randomness": "perfbench/tracing.py wraps audit.assign_common_randomness",
    "audit.permute_nonseed": "perfbench/tracing.py wraps audit.permute_nonseed",
    "net.ThreadPoolExecutor": "perfbench/tracing.py subclasses net.ThreadPoolExecutor",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each top-level function, class and assigned name, with its statement."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                found.update({n.id: node for n in ast.walk(target) if isinstance(n, ast.Name)})
    return found


def _reads(node: ast.AST) -> Counter:
    """How often node reads each name. src/spircr imports names, never
    modules, so a bare name is the only way one module reads another's."""
    return Counter(
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )


def unreferenced(modules: dict[str, ast.Module]) -> set[str]:
    reads = {name: _reads(tree) for name, tree in modules.items() if name != "__init__"}
    found = set()
    for name in reads:
        for defined, node in _definitions(modules[name]).items():
            if defined.startswith("__"):
                continue
            # reads inside the definition itself do not count
            elsewhere = sum(r[defined] for r in reads.values()) - _reads(node)[defined]
            if not elsewhere:
                found.add(f"{name}.{defined}")
    return found


def unused_imports(modules: dict[str, ast.Module]) -> set[str]:
    found = set()
    for name, tree in modules.items():
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node
        used = set(_reads(tree))
        exports = _definitions(tree).get("__all__")
        if exports is not None:  # what a module lists in __all__ it exports
            used |= {e.value for e in exports.value.elts}
        found |= {f"{name}.{bound}" for bound in imported if bound not in used}
    return found


def test_every_top_level_name_is_read_inside_src():
    found = unreferenced(_modules())
    assert found - set(UNREFERENCED) == set(), "defined in src/spircr and read by nothing there"
    assert set(UNREFERENCED) - found == set(), "read in src/spircr or deleted: drop the entry"


def test_every_import_is_used():
    found = unused_imports(_modules())
    assert found - set(UNUSED_IMPORTS) == set(), "imported and never used"
    assert set(UNUSED_IMPORTS) - found == set(), "used or no longer imported: drop the entry"


def test_the_scans_see_a_planted_name():
    # the scans themselves: an unused helper and an unused import are found
    planted = _modules()
    planted["sim"].body += ast.parse("def _orphan():\n    return _orphan()\n").body
    planted["wire"].body[:0] = ast.parse("import os\n").body
    assert unreferenced(planted) - unreferenced(_modules()) == {"sim._orphan"}
    assert unused_imports(planted) - unused_imports(_modules()) == {"wire.os"}
