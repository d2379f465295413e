"""The package keeps one public surface: no name without a caller, no unused import.

Every public module-level function or class of ``src/fppgeo`` must be read
somewhere other than its own definition and the ``__init__`` re-exports: by
another part of the package, by the benchmark in ``perfbench/`` (its code,
or the dotted names its tracer patches), or it must be on ``KEEP`` with the
roadmap direction that will call it, and only while nothing else reads it.
A helper that only the tests read
belongs in ``tests/oracles.py``.

The package imports no third-party module that ``pyproject.toml`` does not
declare, and declares none it does not import.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fppgeo"
BENCH = ROOT / "perfbench"

KEEP = {
    "sample_averaged_graph": "ROADMAP direction 4: the averaged geodesic graph subcommand",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _reads(node):
    """The identifiers that ``node`` reads: names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _traced(spans_path):
    """Every dotted part of the strings in the tracer's ``TRACED`` and ``COUNTED`` tables."""
    out = set()
    for node in _parse(spans_path).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("TRACED", "COUNTED") for t in node.targets):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    out.update(sub.value.split("."))
    return out


def _modules(package):
    return [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]


def unreferenced_names(package=PACKAGE, bench=BENCH, keep=KEEP):
    """``module.name`` of each public top-level def or class that nothing else reads.

    A definition that only unread definitions read is unread too, so the
    search repeats until no more are found.
    """
    bodies = {path: _parse(path).body for path in _modules(package) + sorted(bench.glob("*.py"))}
    reads = {node: _reads(node) for body in bodies.values() for node in body}
    traced = _traced(bench / "spans.py")
    module = {node: path.stem for path, body in bodies.items() for node in body
              if path.parent == package and isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in traced and node.name not in keep}
    unread = set()
    while True:
        found = {node for node in module if node not in unread and not any(
            node.name in reads[other] for other in reads if other is not node)}
        if not found:
            break
        unread |= found
        reads = {node: names for node, names in reads.items() if node not in found}
    return sorted(f"{module[node]}.{node.name}" for node in unread)


def unused_imports(paths):
    """``file: name`` of each imported name that its module never reads."""
    out = []
    for path in paths:
        tree = _parse(path)
        reads = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in reads:
                        out.append(f"{path.relative_to(ROOT)}: {bound}")
    return out


def test_every_public_name_has_a_caller():
    assert unreferenced_names() == []


def test_keep_list_names_exist_and_name_their_direction():
    defined = {node.name for path in _modules(PACKAGE) for node in _parse(path).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(KEEP) <= defined
    assert all(why.startswith("ROADMAP direction ") for why in KEEP.values())
    # an entry is needed only while nothing else reads its name
    for name in KEEP:
        unread = unreferenced_names(keep=set(KEEP) - {name})
        assert any(entry.endswith(f".{name}") for entry in unread), name


def test_no_module_imports_a_name_it_does_not_use():
    assert unused_imports(_modules(PACKAGE) + sorted((ROOT / "tests").glob("*.py"))) == []


def declared_dependencies(pyproject=ROOT / "pyproject.toml"):
    """Import names of the ``dependencies`` of ``pyproject.toml``, read by regex
    (Python 3.10 has no ``tomllib``)."""
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject.read_text(), re.M | re.S).group(1)
    return {name.lower().replace("-", "_") for name in re.findall(r'"([A-Za-z0-9_.-]+)', block)}


def third_party_imports(package=PACKAGE):
    """Top-level modules that the package imports, less the standard library."""
    out = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                out.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.add(node.module.split(".")[0])
    return out - set(sys.stdlib_module_names)


def test_imports_are_the_declared_dependencies():
    assert third_party_imports() == declared_dependencies()


def test_cli_import_loads_neither_jsonschema_nor_scipy_stats():
    # scipy.stats alone once cost about 0.9 s of every cold start
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    check = "loaded = {'jsonschema', 'scipy.stats'} & set(sys.modules); assert not loaded, loaded"
    proc = subprocess.run(
        [sys.executable, "-c", f"import fppgeo.cli, sys; {check}"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
