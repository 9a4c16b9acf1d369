"""Import structure of the package: every import sits at module level, and
the modules' relative imports run one way, with no cycle (``__init__``,
which re-exports everything, aside)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spafit"
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def function_local_imports(tree: ast.Module) -> set[tuple[str, int]]:
    """(function name, line) of every import inside a function or method."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {(node.name, inner.lineno) for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))}
    return found


def module_level_siblings(tree: ast.Module) -> set[str]:
    """Sibling modules a module imports relatively, outside any function."""
    deps, stack = set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            deps |= ({node.module.split(".")[0]} if node.module
                     else {alias.name for alias in node.names})
        stack.extend(ast.iter_child_nodes(node))
    return deps


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of ``graph`` as a closed path of nodes, or None."""
    state: dict[str, str] = {}

    def visit(node, path):
        state[node] = "open"
        for dep in sorted(graph[node]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state and (cycle := visit(dep, path + [dep])):
                return cycle
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state and (cycle := visit(node, [node])):
            return cycle
    return None


def test_no_import_inside_a_function():
    offenders = {f"{name}.py:{line} in {func}"
                 for name, tree in TREES.items()
                 for func, line in function_local_imports(tree)}
    assert sorted(offenders) == []


def test_module_level_imports_form_no_cycle():
    modules = set(TREES) - {"__init__"}
    graph = {name: module_level_siblings(TREES[name]) & modules for name in modules}
    assert graph["harness"] >= {"metrics", "model", "tensor"}  # both import forms seen
    assert find_cycle(graph) is None


def test_cycle_finder_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
