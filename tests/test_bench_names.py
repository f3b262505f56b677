"""Every engine name the benchmark wraps or calls resolves in the engine.

bench/tracer.py wraps functions and methods by name, bench/workloads.py
calls the engine through the modules `load_engine` returns, and
bench/recognize_budget.py imports from it.  A name that no longer resolves
breaks the benchmark, and without this test only its traced runs notice.
The files are read, not run: tracer.py is loaded as a module, and the
other two are parsed."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _engine(name):
    return importlib.import_module("tannaka_forge." + name)


def _load(path):
    spec = importlib.util.spec_from_file_location("_bench_" + path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _workload_refs(tree):
    """(module, attribute chain, call keywords) for every reference
    workloads.py makes through E["module"], directly or through a local
    name bound to one: `suite = E["suite"]`, `fmt_mat = E["textio"].format_matrix`."""
    alias = {}

    def ref(node):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
           and node.value.id == "E" and isinstance(node.slice, ast.Constant):
            return node.slice.value, ()
        if isinstance(node, ast.Name):
            return alias.get(node.id)
        if isinstance(node, ast.Attribute):
            base = ref(node.value)
            return base and (base[0], base[1] + (node.attr,))
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = zip(target.elts, value.elts) if isinstance(target, ast.Tuple) and \
                isinstance(value, ast.Tuple) else [(target, value)]
            for t, v in pairs:
                if isinstance(t, ast.Name) and ref(v) is not None:
                    alias[t.id] = ref(v)
    out = {}
    for node in ast.walk(tree):
        r = ref(node) if isinstance(node, (ast.Attribute, ast.Subscript)) else None
        if r is not None:
            out.setdefault(r, set())
        if isinstance(node, ast.Call) and ref(node.func) is not None:
            out.setdefault(ref(node.func), set()).update(k.arg for k in node.keywords if k.arg)
    return out


def _resolve(module, chain):
    obj = _engine(module)
    for attr in chain:
        obj = getattr(obj, attr)
    return obj


def test_tracer_targets_resolve():
    tracer = _load(BENCH / "tracer.py")
    assert tracer.TARGETS and tracer.METHOD_TARGETS
    for module, attr, _, _ in tracer.TARGETS:
        assert callable(getattr(_engine(module), attr, None)), (module, attr)
    for module, cls, meth, _ in tracer.METHOD_TARGETS:
        assert callable(vars(getattr(_engine(module), cls)).get(meth)), (module, cls, meth)


def test_workload_calls_resolve():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    load = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "load_engine")
    loaded = {c.value for n in ast.walk(load) if isinstance(n, ast.For)
              and isinstance(n.iter, ast.Tuple) for c in n.iter.elts}
    assert {"suite", "tannaka", "textio", "cli"} <= loaded
    for name in loaded:
        _engine(name)
    refs = _workload_refs(tree)
    assert ("tannaka", ("coend_relation_rows",)) in refs
    assert ("suite", ("comatrix_diagram",)) in refs
    for (module, chain), keywords in refs.items():
        assert module in loaded, module
        try:
            obj = _resolve(module, chain)
        except AttributeError:
            pytest.fail("bench/workloads.py reads %s.%s" % (module, ".".join(chain)))
        if keywords:
            params = inspect.signature(obj).parameters
            assert keywords <= params.keys(), (module, chain, keywords)


def test_recognize_budget_imports_resolve():
    tree = ast.parse((BENCH / "recognize_budget.py").read_text())
    imports = [(n.module, a.name) for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               and n.module.startswith("tannaka_forge") for a in n.names]
    assert ("tannaka_forge.suite", "random_diagram") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)
