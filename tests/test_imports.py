"""Every module-level import in the package is used by its module, and
every top-level function, class and method is read somewhere in the
package: no source code exists only for its own tests.  The engine's
stages are named module-level functions, not closures, and they leave a
node's replay slots, its cycle and its rotation offset to `traffic`, the
one module that maps an offset onto a cycle position, and its setup to
`traffic.Node`, which builds it whole.  Every name of the package and
every test that README cites exists."""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import cdss_sim

PACKAGE = Path(cdss_sim.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Imported only so that the benchmark's tracer finds them on the engine
# module; they go once the tracer wraps them where they are called.
TRACER_ONLY = {("engine.py", "tn_pathloss"), ("engine.py", "parse_scenario"),
               ("engine.py", "generate_arrivals")}


def module_imports(tree):
    """(bound name, line) of each import at module level, in the module's
    body or in a top-level `if` or `try` block; `__future__` imports bind
    nothing that code reads."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def names_read(tree):
    """Every name the module reads, also inside quoted annotations such as
    `cfg: "CdssConfig"`."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    quoted = [ast.parse(node.value, mode="eval")
              for annotation in annotations if annotation is not None
              for node in ast.walk(annotation)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {node.id for root in (tree, *quoted) for node in ast.walk(root)
            if isinstance(node, ast.Name)}


def definitions(tree):
    """(name, line) of each top-level function and class and of each
    method of a top-level class; dunder methods are left out, as Python
    calls them."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in (node, *members):
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))):
                yield item.name, item.lineno


def names_and_attributes_read(tree):
    """`names_read`, and every attribute name the module reads or calls."""
    return names_read(tree) | {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)
                               and isinstance(node.ctx, ast.Load)}


def test_no_unused_module_imports():
    checked = 0
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = names_read(tree)
        for name, line in module_imports(tree):
            checked += 1
            if name not in read and (path.name, name) not in TRACER_ONLY:
                unused.append(f"{path.name}:{line} {name}")
    assert checked > 50
    assert unused == []


def test_unused_import_check_sees_a_leftover():
    tree = ast.parse("from typing import List\nfrom .controller import LoadReport\n"
                     "from .band import BandPlan\nx: List[int] = []\n"
                     "def f(plan: 'List[BandPlan]') -> None: ...\n")
    read = names_read(tree)
    assert [name for name, _ in module_imports(tree) if name not in read] == ["LoadReport"]


def test_every_definition_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(names_and_attributes_read, trees.values()))
    defined = [(name, f"{module}:{line} {name}") for module, tree in trees.items()
               for name, line in definitions(tree)]
    assert len(defined) > 100
    assert [where for name, where in defined if name not in read] == []


def test_unused_definition_check_sees_a_leftover():
    tree = ast.parse("class Node:\n    def __init__(self): self.steady()\n"
                     "    def steady(self): return helper()\n"
                     "    def idle(self): ...\n"
                     "    @property\n    def size(self): return 0\n"
                     "def helper(): return Node().size\n"
                     "def leftover(): ...\n")
    read = names_and_attributes_read(tree)
    assert [name for name, _ in definitions(tree) if name not in read] == ["idle", "leftover"]


def closures(tree):
    """(name, line) of each lambda, and of each function defined inside
    another function, anywhere in the module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            found.add(("lambda", node.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((inner.name, inner.lineno) for inner in ast.walk(node)
                         if inner is not node
                         and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return sorted(found, key=lambda item: item[1])


def test_engine_defines_no_closure():
    tree = ast.parse((PACKAGE / "engine.py").read_text(), filename="engine.py")
    assert sum(isinstance(node, ast.FunctionDef) for node in tree.body) > 10
    assert closures(tree) == []


def test_closure_check_sees_a_nested_function_and_a_lambda():
    tree = ast.parse("def stage(nodes):\n    def inner(): ...\n"
                     "    return sorted(nodes, key=lambda n: n.id)\n"
                     "class Node:\n    def steady(self): return [x for x in ()]\n"
                     "def outer():\n    class Local:\n        def method(self): ...\n")
    assert closures(tree) == [("inner", 2), ("lambda", 3), ("method", 8)]


# What `traffic.Node` alone maps onto a cycle position.
REPLAY_STATE = {"slots", "cycle", "offset", "replay_cycle"}


def slot_accesses(tree):
    """(attribute, line) of each access to a `REPLAY_STATE` attribute of
    any object, read, written, called or deleted through."""
    return sorted(((node.attr, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in REPLAY_STATE),
                  key=lambda item: item[1])


def test_engine_reads_no_replay_slot():
    tree = ast.parse((PACKAGE / "engine.py").read_text(), filename="engine.py")
    assert slot_accesses(tree) == []


def test_slot_check_sees_a_leftover():
    tree = ast.parse("def complete(node):\n    held = [node.slots.get(0)]\n"
                     "    del node.slots[0]\n    node.slots[1] = held[0]\n"
                     "    cycle = nodes[0].replay_cycle()\n"
                     "    at = node.offset % len(cycle.keys)\n"
                     "    node.cycle = None\n"
                     "    return node.steady(), slots, offset, node.ahead(at, 1)\n")
    assert slot_accesses(tree) == [("slots", 2), ("slots", 3), ("slots", 4),
                                   ("replay_cycle", 5), ("offset", 6), ("cycle", 7)]


# What `traffic.Node` derives or takes once, at construction.
NODE_SETUP = {"ue_ids", "books", "table", "drained", "increments", "rotation"}


def setup_writes(tree):
    """(attribute, line) of each write to a `NODE_SETUP` attribute of any
    object: an assignment to it, to an item of it or a slice, its
    deletion, or a method called on it, such as `append`."""
    found = []
    for node in ast.walk(tree):
        target = None
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            target = node
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
        if isinstance(target, ast.Attribute) and target.attr in NODE_SETUP:
            found.append((target.attr, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_engine_leaves_node_setup_to_the_node():
    tree = ast.parse((PACKAGE / "engine.py").read_text(), filename="engine.py")
    assert setup_writes(tree) == []


def test_setup_check_sees_a_leftover():
    tree = ast.parse("node.ue_ids = []\nnodes[0].ue_ids.append(3)\n"
                     "node.books[1] += 2.0\ndel node.table\nnode.rotation += 1\n"
                     "node.drained[:] = []\nnode.offset, node.increments = 0, []\n"
                     "x = node.drained + node.books[0:1]\n"
                     "ok = changed.isdisjoint(node.ue_ids), len(node.table)\n")
    assert setup_writes(tree) == [("ue_ids", 1), ("ue_ids", 2), ("books", 3), ("table", 4),
                                  ("rotation", 5), ("drained", 6), ("increments", 7)]


# One short case-1 run from the default scenario, as `cdss-sim run` makes
# it, in a fresh interpreter; prints the process-pool modules it loaded.
SINGLE_RUN = """
import sys
from dataclasses import replace
from pathlib import Path
import cdss_sim
from cdss_sim.engine import RunSpec, run_and_write
from cdss_sim.scenario import load_scenario, validate_scenario
cfg = load_scenario(sys.argv[1])
validate_scenario(cfg)
cfg = replace(cfg, sim=replace(cfg.sim, total_s=0.2, warmup_s=0.1))
_, files = run_and_write(RunSpec(cfg, 1, 1), Path(sys.argv[2]))
assert len(files) == 6, files
print(sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""


def test_a_single_run_loads_no_process_pool(tmp_path):
    # Only a campaign with jobs > 1 uses the pool; its 30-odd modules
    # would lengthen every cold start, so a single run must not import them.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", SINGLE_RUN, str(ROOT / "scenarios" / "default.ini"),
         str(tmp_path / "out")], env=env, check=True, stdout=subprocess.PIPE, text=True)
    assert done.stdout.strip() == "[]"


# A backticked dotted name, such as `engine.run_simulation` or `Node.books`.
CITED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def self_attributes(cls):
    """The names the body of a module-level class assigns as `self.<name>`."""
    tree = ast.parse(inspect.getsource(cls))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def resolves(owner, names):
    """Whether `owner.<names...>` exists: a module or class attribute (a
    method, property or NamedTuple field), or, as the last name, a
    dataclass field or an attribute the class body assigns on `self`."""
    for i, name in enumerate(names):
        if not hasattr(owner, name):
            if not isinstance(owner, type) or i < len(names) - 1:
                return False
            fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
            return name in {f.name for f in fields} | self_attributes(owner)
        owner = getattr(owner, name)
    return True


def test_every_name_the_readme_cites_resolves():
    # Names that begin with a package module or a class defined in one;
    # any other (`np.where`, `summary.json`) is not the package's.
    modules = {path.stem: importlib.import_module(f"cdss_sim.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    roots = {name: value for module in modules.values() for name, value in vars(module).items()
             if isinstance(value, type) and value.__module__ == module.__name__}
    roots.update(modules)
    cited = sorted({tuple(name.split(".")) for name in CITED.findall(
        (ROOT / "README.md").read_text())})
    checked = [parts for parts in cited if parts[0] in roots]
    assert len(checked) >= 60
    assert [".".join(parts) for parts in checked if not resolves(roots[parts[0]], parts[1:])] == []


# A backticked test, `test_engine.py::test_name` (also under `tests/`) or a
# bare `test_name`, which any test file may define.
CITED_TEST = re.compile(r"`(?:(?:tests/)?(test_\w+\.py)::)?(test_\w+)`")


def test_every_test_the_readme_cites_exists():
    sources = {path.name: path.read_text() for path in sorted((ROOT / "tests").glob("test_*.py"))}
    cited = CITED_TEST.findall((ROOT / "README.md").read_text())
    assert sum(bool(file) for file, _ in cited) >= 15 and len(cited) >= 20
    assert [f"{file}::{name}" for file, name in cited
            if not any(f"\ndef {name}(" in text for path, text in sources.items()
                       if path == file or not file)] == []
