"""Architecture contracts: the import graph and the docs stay honest.

Machine-checked invariants:

* **Import contract** — every ``repro.core`` and ``repro.network``
  module is shape-generic: it may reach the ``repro.topology`` *registry*
  (lazily, inside functions), but never imports a topology-specific
  module (``repro.topology.ring``/``.mesh``/…) directly.
* **Doc sync** — the dispatch table in ``docs/api.md`` lists exactly the
  cells of the live ``api.DISPATCH`` matrix.
* **Schedule privacy** — outside ``repro/core/schedule.py`` no module
  reads a ``Schedule``'s private edge bookkeeping (an ``_edge_owner``
  map, the ``_owner_map`` reference loop), so no hot path can come to
  depend on an eager edge map again; ``Schedule.edge_owner()`` is the
  public, on-demand view.
* **Removed paths stay removed** — nothing imports a deleted module: the
  in-package bench harness and its ``repro.perf`` stopwatches
  (``perfbench/`` is the one benchmark), the vectorized BFL twin
  (``bfl_fast`` is the one fast kernel), and the compat shims that
  pointed at ``repro.topology`` / ``repro.trace.events`` (``docs/api.md``
  lists where each removed name went).
"""

import ast
import re
from pathlib import Path

import pytest

from repro import api

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
DOCS = Path(__file__).resolve().parent.parent / "docs"

#: Modules core/network must never import (topology-specific homes).
FORBIDDEN_PREFIXES = (
    "repro.topology.line",
    "repro.topology.ring",
    "repro.topology.ring_exact",
    "repro.topology.mesh",
    "repro.topology.mesh_exact",
    "repro.topology.solvers",
)


def _module_name(path: Path) -> str:
    rel = path.relative_to(SRC.parent)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve(module: str, node: ast.ImportFrom) -> str:
    """The absolute module an ImportFrom targets."""
    if node.level == 0:
        return node.module or ""
    base = module.split(".")
    # importing module is a plain module (not a package __init__), so its
    # package is base[:-1]; each extra level strips one more component
    package = base[:-1] if not (SRC.parent / Path(*base) / "__init__.py").exists() else base
    anchor = package[: len(package) - (node.level - 1)]
    return ".".join(anchor + ([node.module] if node.module else []))


def _imported_modules(path: Path) -> list[tuple[str, int]]:
    """Every module this file imports (absolute names), with line numbers."""
    module = _module_name(path)
    tree = ast.parse(path.read_text())
    out: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = _resolve(module, node)
            out.append((target, node.lineno))
            # `from repro import topology` imports the submodule too
            for alias in node.names:
                out.append((f"{target}.{alias.name}", node.lineno))
    return out


def _layer_files(layer: str) -> list[Path]:
    return sorted((SRC / layer).glob("*.py"))


class TestImportContract:
    @pytest.mark.parametrize("layer", ["core", "network"])
    def test_no_topology_specific_imports(self, layer):
        violations = []
        for path in _layer_files(layer):
            module = _module_name(path)
            for target, lineno in _imported_modules(path):
                if any(
                    target == p or target.startswith(p + ".")
                    for p in FORBIDDEN_PREFIXES
                ):
                    violations.append(f"{module}:{lineno} imports {target}")
        assert not violations, (
            "core/network must stay shape-generic; reach shapes through the "
            "repro.topology registry instead:\n" + "\n".join(violations)
        )

    @pytest.mark.parametrize("layer", ["core", "network"])
    def test_topology_package_only_imported_lazily(self, layer):
        """core/network modules may use the registry, but only via
        function-level imports — no module-level dependency cycle."""
        violations = []
        for path in _layer_files(layer):
            module = _module_name(path)
            tree = ast.parse(path.read_text())
            for node in tree.body:  # module level only
                if isinstance(node, ast.ImportFrom):
                    target = _resolve(module, node)
                    names = {a.name for a in node.names}
                    if target == "repro.topology" or (
                        target == "repro" and "topology" in names
                    ):
                        violations.append(f"{module}:{node.lineno}")
                elif isinstance(node, ast.Import):
                    if any(
                        a.name.startswith("repro.topology") for a in node.names
                    ):
                        violations.append(f"{module}:{node.lineno}")
        assert not violations, (
            "repro.topology must be imported lazily (inside functions) from "
            "core/network:\n" + "\n".join(violations)
        )


#: Private names of ``repro.core.schedule`` no other module may touch.
SCHEDULE_PRIVATE = {"_edge_owner", "_owner_map"}
ROOT = SRC.parent.parent


def _schedule_private_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.ImportFrom):
            name = next(
                (a.name for a in node.names if a.name in SCHEDULE_PRIVATE), None
            )
        elif isinstance(node, ast.Constant):  # getattr(s, "_edge_owner")
            name = node.value
        else:
            continue
        if name in SCHEDULE_PRIVATE:
            hits.append(f"{path}:{node.lineno} reads {name}")
    return hits


class TestSchedulePrivacy:
    def test_no_module_reads_schedule_private_state(self):
        own = SRC / "core" / "schedule.py"
        files = [
            path
            for top in ("src", "benchmarks", "examples", "perfbench")
            for path in sorted((ROOT / top).rglob("*.py"))
            if path != own
        ]
        assert any(path.parent == SRC / "server" for path in files)
        violations = [hit for path in files for hit in _schedule_private_reads(path)]
        assert not violations, (
            "read the edge map through Schedule.edge_owner(), not its "
            "private state:\n" + "\n".join(violations)
        )

    def test_check_flags_private_reads(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from repro.core.schedule import _owner_map\n"
            "def f(s):\n"
            "    return s._edge_owner, getattr(s, '_edge_owner')\n"
        )
        assert len(_schedule_private_reads(bad)) == 3


#: Deleted modules; never import again.
REMOVED_MODULES = (
    "repro.engine.bench",
    "repro.engine.bench_buffers",
    "repro.trace.bench",
    "repro.perf",
    "repro.core.bfl_vec",
    "repro._deprecation",
    "repro.mesh",
    "repro.exact.ring",
    "repro.exact.ring_buffered",
    "repro.exact.mesh",
    "repro.core.ring_bfl",
    "repro.network.ring",
    "repro.network.ring_simulator",
    "repro.network.trace",
    "repro.engine.resilience",
)


def _removed_imports(path: Path, module: str | None = None) -> list[str]:
    """Every import in ``path`` that reaches a module in REMOVED_MODULES.

    ``module`` is the file's dotted name, needed to resolve relative
    imports; files outside ``src/`` import ``repro`` absolutely.
    """
    if module is None and SRC in path.parents:
        module = _module_name(path)
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level and module is None:
                continue
            base = _resolve(module or "", node)
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            if any(
                target == gone or target.startswith(gone + ".")
                for gone in REMOVED_MODULES
            ):
                hits.append(f"{path}:{node.lineno} imports {target}")
                break
    return hits


class TestRemovedPaths:
    def test_no_file_imports_a_removed_module(self):
        files = [
            path
            for top in ("src", "tests", "benchmarks", "examples", "perfbench")
            for path in sorted((ROOT / top).rglob("*.py"))
        ]
        assert any(path.parent == ROOT / "benchmarks" for path in files)
        violations = [hit for path in files for hit in _removed_imports(path)]
        assert not violations, (
            "these modules were deleted; docs/api.md lists their "
            "replacements:\n"
            + "\n".join(violations)
        )

    def test_check_flags_every_import_form(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import repro.perf\n"
            "from repro import perf\n"
            "from repro.engine import bench\n"
            "from repro.engine.bench_buffers import bench_buffers\n"
            "from repro.trace.bench import run_loadtest_benchmarks\n"
            "from ..perf import best_of\n"
            "from .bench import bench_kernel\n"
            "from repro.engine import cache, pool\n"
            "import repro.performance\n"
            "from repro.network import ring_simulator\n"
            "from ..mesh import xy_schedule\n"
            "from repro.topology.ring import ring_bfl\n"
        )
        assert len(_removed_imports(bad)) == 6
        assert len(_removed_imports(bad, module="repro.engine.sweep")) == 9


DISPATCH_ROW = re.compile(
    r"^\|\s*`(?P<topology>\w+)`\s*\|\s*`(?P<regime>\w+)`\s*\|\s*`(?P<method>\w+)`\s*\|"
)


class TestDocSync:
    def _doc_cells(self):
        cells = set()
        for line in (DOCS / "api.md").read_text().splitlines():
            m = DISPATCH_ROW.match(line)
            if m:
                cells.add((m["topology"], m["regime"], m["method"]))
        return cells

    def test_api_md_table_matches_live_dispatch(self):
        live = {
            (topo, regime, method)
            for (topo, regime), methods in api.DISPATCH.items()
            for method in methods
        }
        doc = self._doc_cells()
        assert doc == live, (
            f"docs/api.md dispatch table out of sync: "
            f"missing={sorted(live - doc)} stale={sorted(doc - live)}"
        )

    def test_doc_table_is_nonempty(self):
        assert len(self._doc_cells()) >= 18

    def test_doc_table_lists_the_ca_family(self):
        """The constant-approximation family is documented, not just
        registered: the dispatch table must carry its cell and the model
        docs must explain the bounded-buffer dimension it targets."""
        assert ("line", "buffered", "ca") in self._doc_cells()
        api_md = (DOCS / "api.md").read_text()
        assert "buffer_capacity" in api_md and "admission" in api_md
        arch = (DOCS / "architecture.md").read_text()
        assert "## Bounded buffers" in arch
