"""REP012: architecture layering over the module import graph.

The simulator's packages form a strict tower — each layer may import only
itself and the layers beneath it:

.. code-block:: text

    cli, __main__                  (entry points)
      service                      (daemon, socket server, client)
        core, runner               (experiments, batch execution)
          telemetry, analysis      (observability, verification)
            gpu                    (system assembly)
              workloads            (kernels, traces)
                cores              (SM, warps, coalescer)
                  cache, dram, icnt  (memory-system components)
                    mem            (requests, queues, pipes, addressing)
                      sim          (engine, Component, config)
                        utils      (stats, tables, export helpers)
                          errors   (exception hierarchy)

``core`` and ``runner`` share a layer deliberately: experiment drivers
fan out through the runner while the runner's jobs execute experiment
kernels, a mutual *package* relationship that stays acyclic at module
granularity — which is exactly what this pass checks.  Only module-level
imports count (function-local imports are deliberate lazy deferrals;
``TYPE_CHECKING`` imports are erased at runtime); the pass rejects any
upward import and any module-level import cycle.
"""

from __future__ import annotations

from repro.analysis.static.finding import Finding
from repro.analysis.static.modgraph import ModuleInfo

#: Layer tower, lowest first.  An entry is the first dotted component
#: after ``repro`` (``""`` is the package root itself, an entry point:
#: its ``__init__`` re-exports the public API from every layer).
LAYERS: tuple[tuple[str, ...], ...] = (
    ("errors",),
    ("utils",),
    ("sim",),
    ("mem",),
    ("cache", "dram", "icnt"),
    ("cores",),
    ("workloads",),
    ("gpu",),
    ("telemetry", "analysis"),
    ("core", "runner"),
    ("service",),
    ("cli", "__main__", ""),
)

_LAYER_OF: dict[str, int] = {
    package: rank
    for rank, packages in enumerate(LAYERS)
    for package in packages
}


def layer_of(module_name: str) -> int | None:
    """Layer rank of a dotted ``repro.*`` module name (None if unknown)."""
    parts = module_name.split(".")
    if parts[0] != "repro":
        return None
    package = parts[1] if len(parts) > 1 else ""
    return _LAYER_OF.get(package)


def _layer_label(rank: int) -> str:
    return "/".join(name or "repro" for name in LAYERS[rank])


def _refined_targets(
    target: str, names: tuple[str, ...], known: set[str]
) -> list[str]:
    """Concrete module targets of one import edge.

    ``from repro import errors`` depends on ``repro.errors``, not on the
    root package; a name is treated as a submodule when the dotted
    candidate is in the scanned set or names a known layer package, and
    as a plain attribute of ``target`` otherwise.
    """
    if not names:
        return [target]
    refined: list[str] = []
    for name in names:
        candidate = f"{target}.{name}"
        if candidate in known or layer_of(candidate) is not None:
            refined.append(candidate)
        else:
            refined.append(target)
    return refined


def check_layering(modules: list[ModuleInfo]) -> list[Finding]:
    """Run REP012: upward-import and cycle detection over ``modules``."""
    findings: list[Finding] = []
    by_name = {m.name: m for m in modules if m.name is not None}

    def flag(module: ModuleInfo, line: int, message: str) -> None:
        snippet = ""
        if 1 <= line <= len(module.source_lines):
            snippet = module.source_lines[line - 1].strip()
        findings.append(
            Finding("REP012", module.path, line, 0, message, snippet)
        )

    # -- upward imports ------------------------------------------------
    for module in modules:
        if module.name is None:
            continue
        own_layer = layer_of(module.name)
        if own_layer is None:
            continue  # unknown package: not part of the tower (fixtures)
        for edge in module.imports:
            for target in _refined_targets(
                edge.target, edge.names, set(by_name)
            ):
                target_layer = layer_of(target)
                if target_layer is None:
                    continue
                if target_layer > own_layer:
                    flag(
                        module, edge.line,
                        f"{module.name} (layer {_layer_label(own_layer)!r}) "
                        f"imports {target} (layer "
                        f"{_layer_label(target_layer)!r}); imports must "
                        "point downward in the architecture tower",
                    )

    # -- module-level import cycles ------------------------------------
    # Edges restricted to modules present in this scan; an imported
    # *package* name resolves to its __init__ module when scanned.
    graph: dict[str, list[tuple[str, int]]] = {}
    for module in modules:
        if module.name is None:
            continue
        edges: list[tuple[str, int]] = []
        for edge in module.imports:
            for target in _refined_targets(
                edge.target, edge.names, set(by_name)
            ):
                while target and target not in by_name:
                    target = target.rpartition(".")[0]
                if target and target != module.name:
                    edges.append((target, edge.line))
        graph[module.name] = edges

    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {name: WHITE for name in graph}
    reported: set[frozenset[str]] = set()

    def dfs(name: str, stack: list[tuple[str, int]]) -> None:
        color[name] = GRAY
        for target, line in graph.get(name, ()):
            if color.get(target, BLACK) == GRAY:
                members = [n for n, _ in stack]
                start = members.index(target) if target in members else 0
                cycle = members[start:] + [target]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    module = by_name[name]
                    flag(
                        module, line,
                        "module-level import cycle: " + " -> ".join(cycle),
                    )
            elif color.get(target, BLACK) == WHITE:
                dfs(target, stack + [(target, line)])
        color[name] = BLACK

    for name in sorted(graph):
        if color[name] == WHITE:
            dfs(name, [(name, 1)])

    return findings
