"""The package holds only what a command or the benchmark runs: every
top-level function and class in src/tannaka_forge, and every method of
those classes, is reached from cli.main or from a name the benchmark
reads, by following the names the reached definitions mention."""

import ast
from pathlib import Path

import tannaka_forge

SRC = Path(tannaka_forge.__file__).resolve().parent

# Read only by bench/ (tests/test_bench_names.py checks that they resolve):
# bench/tracer.py wraps linalg.solve by name, so a traced bench run fails
# without it; bench/workloads.py writes its inputs with the two formatters,
# cofree and the suite's trivial coalgebra, and its oracle reads
# coend_relation_rows and the class map; bench/recognize_budget.py draws
# its diagrams with random_diagram.
BENCH_ROOTS = ["linalg.solve", "textio.format_diagram", "textio.format_reconstruct_input",
               "coalgebra.cofree", "suite.trivial_coalgebra", "suite.random_diagram",
               "tannaka.coend_relation_rows", "tannaka.CoendResult.classmap"]

# Read only by tests: the dense form of the coend's sparse relation rows,
# written on first read, which they compare with coend_relation_rows.
EXEMPT = {"tannaka.CoendResult.rel_rows"}


def _special(node) -> bool:
    return node.name.startswith("__") and node.name.endswith("__")


def _definitions():
    """"module.name" for each top-level function and class, and
    "module.Class.name" for each method; special methods such as __init__
    or __matmul__, which the interpreter calls, belong to their class."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = "%s.%s" % (path.stem, node.name)
                defs[key] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not _special(item):
                            defs["%s.%s" % (key, item.name)] = item
    return defs


def _nodes(node):
    """The nodes of a definition, without the methods of a class that are
    definitions of their own."""
    if not isinstance(node, ast.ClassDef):
        yield from ast.walk(node)
        return
    yield node
    for part in node.bases + node.decorator_list + node.body:
        if not isinstance(part, ast.FunctionDef) or _special(part):
            yield from ast.walk(part)


def _reached(defs, roots):
    """The definitions reachable from roots; a Name or Attribute mentioning
    a name reaches every definition of that name."""
    by_name = {}
    for key in defs:
        by_name.setdefault(key.rsplit(".", 1)[1], []).append(key)
    seen, todo = set(roots), list(roots)
    while todo:
        for node in _nodes(defs[todo.pop()]):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            for key in by_name.get(name, ()):
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
    return seen


def test_every_definition_is_reached_from_the_cli():
    defs = _definitions()
    assert set(BENCH_ROOTS) | EXEMPT <= defs.keys()
    unreached = sorted(set(defs) - _reached(defs, ["cli.main"] + BENCH_ROOTS) - EXEMPT)
    assert not unreached, "not reached from cli.main or bench/: " + ", ".join(unreached)

