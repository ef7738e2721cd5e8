"""Static reachability check for the ``siteone_crawler_ray`` package.

Entry points are every non-test ``.py`` file outside the package
(``__ray_entry__.py``, ``bench.py``, ``scripts/``, ``crawlbench/``) plus
``cli.main``.  Two passes, stdlib ``ast`` only:

1. Import closure: a package module is reached only if reached code
   imports it (a root file, module-level code of a reached module, or
   the body of a reached definition).
2. Name closure: a top-level function, class or module-level name of a
   reached module is reached if any reached code mentions its name (as a
   variable, an attribute or an imported name).  Matching by bare name,
   whatever the module, over-approximates reach, so whatever this
   reports as unreached is never called from an entry point.  String
   dispatch (``importlib``, ``getattr(module, "name")``) is not
   followed; the package uses none.

Prints each unreached module and name with its line count and exits 1
if one is missing from ``KEEP`` or ``DEFERRED`` (or an entry there is
reached or gone).  ``KEEP`` maps a name to the test that uses it as a
reference for reached code.  ``DEFERRED`` maps unreached code that still
carries its own tests to those tests: it is queued for deletion (a
change removes only a few tests at a time), and the table may only
shrink.  An entry that names a module keeps the whole module.

    python3 scripts/reachability.py [--verbose]
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "siteone_crawler_ray"

# Unreached on purpose: each is a test's reference for reached code.
KEEP = {
    "stages.graph.pagerank_reference":
        "tests/test_pagerank.py (single-process oracle for graph.pagerank)",
    "stages.graph.pagerank_partition_nodes":
        "tests/test_pagerank.py (expected node sets of pagerank's partitions)",
    "stages.join.hash_join_table":
        "tests/test_relational.py (driver-side concat of join.hash_join's parts)",
    "stages.similarity.knn_lsh":
        "tests/test_training_ops.py (reference for knn_lsh_bucketed)",
    "stages.fetch.synthetic_cache_control":
        "tests/test_crawl_parity.py (scalar reference for _cache_control_vec)",
    "stages.fetch._CONTENT_TYPE_HEADER":
        "tests/test_crawl_parity.py (scalar reference for _HEADER_LUT)",
    "stages.multimodal.encode_ico":
        "tests/test_training_ops.py (inverse of decode_ico)",
    "stages.multimodal.synthesize_media_table":
        "tests/test_training_ops.py (media fixture for the decode stages)",
    "pipelines.delivery.decode_upload_form":
        "tests/test_delivery.py (inverse of build_upload_form)",
    "stages.dedup._hamming64":
        "tests/test_phash.py (Hamming distance between pHash values)",
    "pipelines.curation.ngram_top50":
        "tests/test_sampling.py (unfused reference for ngram_and_bm25)",
    "stages.sketch.hll_merge":
        "tests/test_sketch.py (merge law of the grouped HLL)",
}

# Unreached, with tests of their own; queued for deletion with those tests.
DEFERRED: dict[str, str] = {}


def _module_name(path: str) -> str:
    rel = os.path.relpath(path, os.path.join(ROOT, PKG))[:-3].replace(os.sep, ".")
    return "" if rel == "__init__" else rel.removesuffix(".__init__")


def _package_modules() -> dict[str, str]:
    mods = {}
    for d, _, files in os.walk(os.path.join(ROOT, PKG)):
        for f in files:
            if f.endswith(".py"):
                mods[_module_name(os.path.join(d, f))] = os.path.join(d, f)
    return mods


def _root_files() -> list[str]:
    out = []
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = [x for x in dirs if x not in (PKG, "tests", ".git") and not x.startswith(".")]
        out += [os.path.join(d, f) for f in files if f.endswith(".py") and not f.startswith("test_")]
    return sorted(p for p in out if os.path.abspath(p) != os.path.abspath(__file__))


class _Unit:
    """One piece of code that runs as a whole: references it makes
    (identifiers) and package modules it imports."""

    def __init__(self, nodes, module: str | None, mods: dict[str, str]):
        self.names: set[str] = set()
        self.imports: set[str] = set()
        for node in nodes:
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    self.names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    self.names.add(n.attr)
                elif isinstance(n, ast.Import):
                    for a in n.names:
                        if a.name.startswith(PKG + ".") or a.name == PKG:
                            self._add_module(a.name[len(PKG) + 1:], mods)
                elif isinstance(n, ast.ImportFrom):
                    self._import_from(n, module, mods)

    def _add_module(self, name: str, mods: dict[str, str]) -> None:
        parts = name.split(".") if name else []
        for i in range(len(parts) + 1):
            if ".".join(parts[:i]) in mods:
                self.imports.add(".".join(parts[:i]))

    def _import_from(self, n: ast.ImportFrom, module: str | None, mods) -> None:
        if n.level:
            if module is None:
                return
            is_pkg = mods.get(module, "").endswith("__init__.py")
            parts = module.split(".") if module else []
            parts = parts if is_pkg else parts[:-1]
            parts = parts[: len(parts) - (n.level - 1)]
            base = ".".join(parts + ([n.module] if n.module else []))
        elif n.module and (n.module == PKG or n.module.startswith(PKG + ".")):
            base = n.module[len(PKG) + 1:]
        else:
            return
        self._add_module(base, mods)
        for a in n.names:
            sub = f"{base}.{a.name}" if base else a.name
            if sub in mods:
                self._add_module(sub, mods)
            else:
                self.names.add(a.name)


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    names = []
    for t in targets:
        names += [n.id for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _index(mods: dict[str, str]):
    """name -> [(module, qualified name, unit, lines)] over every
    top-level definition, plus each module's import-time code."""
    defs: dict[str, list[tuple[str, str, _Unit, int]]] = {}
    module_units: dict[str, _Unit] = {}
    module_lines: dict[str, int] = {}
    for mod, path in mods.items():
        with open(path) as f:
            src = f.read()
        module_lines[mod] = len(src.splitlines())
        loose = []
        for stmt in ast.parse(src, path).body:
            names = _defined_names(stmt)
            if not names or any(n.startswith("__") for n in names):
                loose.append(stmt)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                loose += stmt.decorator_list  # decorators run at import time
            unit = _Unit([stmt], mod, mods)
            for name in names:
                lines = stmt.end_lineno - stmt.lineno + 1
                defs.setdefault(name, []).append((mod, f"{mod}.{name}", unit, lines))
        module_units[mod] = _Unit(loose, mod, mods)
    return defs, module_units, module_lines


def _closure(defs, module_units, roots: list[_Unit]) -> tuple[set[str], set[str]]:
    """→ (reached modules, reached qualified names) from ``roots``."""
    by_module: dict[str, list] = {}
    for entries in defs.values():
        for e in entries:
            by_module.setdefault(e[0], []).append(e)
    seen_mods: set[str] = set()
    reached: set[str] = set()
    names: set[str] = set()
    pending = list(roots)

    def reach(mod: str, qual: str, unit: _Unit) -> None:
        if mod in seen_mods and qual not in reached:
            reached.add(qual)
            pending.append(unit)

    while pending:
        unit = pending.pop()
        for n in unit.names - names:
            names.add(n)
            for mod, qual, u, _ in defs.get(n, ()):
                reach(mod, qual, u)
        for mod in unit.imports - seen_mods:
            seen_mods.add(mod)
            pending.append(module_units[mod])
            for m, qual, u, _ in by_module.get(mod, ()):
                if qual.rsplit(".", 1)[-1] in names:
                    reach(m, qual, u)
    return seen_mods, reached


def scan(keep=()) -> dict[str, int]:
    """→ {unreached module or qualified name: lines}.  Names in ``keep``
    are extra roots, so what only they use is not reported."""
    mods = _package_modules()
    defs, module_units, module_lines = _index(mods)
    roots = [_Unit([ast.parse(f"from {PKG}.cli import main")], None, mods)]
    for path in _root_files():
        with open(path) as f:
            roots.append(_Unit([ast.parse(f.read(), path)], None, mods))
    for q in keep:
        mod, _, name = q.rpartition(".")
        if q in mods:
            body = sorted(n for n, es in defs.items() if any(e[0] == q for e in es))
            src = f"from {PKG}.{q} import {', '.join(body)}" if body else f"import {PKG}.{q}"
        else:
            src = f"from {PKG}.{mod} import {name}"
        roots.append(_Unit([ast.parse(src)], None, mods))
    seen_mods, reached = _closure(defs, module_units, roots)
    out = {m: module_lines[m] for m in mods if m not in seen_mods}
    for entries in defs.values():
        for mod, qual, _, lines in entries:
            if mod in seen_mods and qual not in reached:
                out[qual] = out.get(qual, 0) + lines
    return out


def main(argv: list[str]) -> int:
    allowed = {**KEEP, **DEFERRED}
    unreached = scan()
    missing = scan(allowed)
    bad = 0
    for name in sorted(unreached):
        what = f"{name} ({unreached[name]} lines)"
        if name in missing:
            bad += 1
            print(f"UNREACHED {what}")
        elif "--verbose" in argv:
            print(f"kept      {what}: {allowed.get(name, 'used by a kept entry')}")
    for name in sorted(set(allowed) - set(unreached)):
        bad += 1
        print(f"STALE KEEP {name}: reached from an entry point, or gone")
    kept = sum(n for k, n in unreached.items() if k not in missing)
    print(f"{bad} problem(s); {len(KEEP)} KEEP and {len(DEFERRED)} DEFERRED entries "
          f"cover {kept} unreached lines")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
