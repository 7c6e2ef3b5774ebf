"""The import graph of the `vpu` package, read from the source with `ast`.

The modules form a DAG, and `vpu.autodiff` (the tape) depends on no other
`vpu` module.  No module draws randomness from anywhere but `vpu.sampling`'s
generator: none imports `random` or uses `numpy.random`.  Nothing is left
over: a module uses every name it imports, every `_`-prefixed
module-level name is referenced somewhere in the package, and so is every
public function, class and method, so that `src/` holds no code that only
the tests run.  Nor does it hold a knob that only the tests turn: every
parameter with a default, of a function that `src/` calls by name, is passed
by one of those calls (`cli.main`, the entry point, aside).  Outputs of the
generator are mixed in numpy in two places only: `sampling._mix` is read by
`_take` and `_take_lockstep` alone.  Every dataclass is frozen, so a value,
once built, is not changed behind its holder's back.  A small traced twin
of each benchmark workload fails no command and measures every per-layer
metric the workload runs.  Importing the command-line entry point loads no
`multiprocessing`: no command starts a process.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vpu"


def import_graph(src: Path = SRC) -> dict[str, set[str]]:
    """Module name -> the package modules it imports, at any depth in the
    file; `from . import x` counts as an import of `x`, not of the package."""
    modules = {path.stem for path in src.glob("*.py")}
    graph = {}
    for name in sorted(modules):
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                full_names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # a relative import (level 1) is relative to the package
                module = ".".join(filter(None, ["vpu" if node.level else "", node.module]))
                full_names = [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            for full in full_names:
                parts = full.split(".")
                if parts[0] == "vpu" and len(parts) > 1 and parts[1] in modules:
                    deps.add(parts[1])
        graph[name] = deps
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path that starts and ends at the same module,
    or None when the graph is acyclic."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(node):
        state[node] = 1
        path.append(node)
        for dep in sorted(graph.get(node, ())):
            if state.get(dep) == 1:
                return path[path.index(dep):] + [dep]
            if dep not in state and (cycle := visit(dep)):
                return cycle
        path.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state and (cycle := visit(node)):
            return cycle
    return None


def test_graph_is_read_from_the_source():
    graph = import_graph()
    assert {"autodiff", "sampling"} <= graph["model"]
    assert "model" in graph["metrics"]
    assert "trainer" in graph["cli"]


def test_no_import_cycle():
    assert find_cycle(import_graph()) is None


def test_autodiff_imports_no_package_module():
    assert import_graph()["autodiff"] == set()


@pytest.mark.parametrize("graph, cycle", [
    ({"a": {"b"}, "b": {"c"}, "c": {"a"}}, ["a", "b", "c", "a"]),
    ({"a": {"a"}}, ["a", "a"]),
    ({"a": {"b"}, "b": set(), "c": {"b", "d"}, "d": {"c"}}, ["c", "d", "c"]),
    ({"a": {"b", "c"}, "b": {"c"}, "c": set()}, None),
])
def test_find_cycle(graph, cycle):
    assert find_cycle(graph) == cycle


def test_relative_and_absolute_imports_are_edges(tmp_path):
    (tmp_path / "a.py").write_text("from . import b as bb\nfrom .c import f\n")
    (tmp_path / "b.py").write_text("import vpu.c\n\ndef g():\n    from vpu import a\n")
    (tmp_path / "c.py").write_text("import numpy as np\nfrom vpu.b import g\n")
    assert import_graph(tmp_path) == {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"b"}}


def other_randomness(src: Path = SRC) -> list[str]:
    """`module:line` of each import of `random` and each use of
    `numpy.random` (imported, or as an attribute of numpy under any name)."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.Import) for alias in node.names
                       if alias.name == "numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                modules = (["numpy.random"] if node.attr == "random"
                           and isinstance(node.value, ast.Name)
                           and node.value.id in numpy_names else [])
            else:
                continue
            if any(m.split(".")[0] == "random" or m.startswith("numpy.random") for m in modules):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def mix_readers(src: Path = SRC) -> list[str]:
    """`module.function` (`module.Class.method`, or `module` at top level)
    for each read of `_mix` in `src`, as a name or an attribute, in source
    order."""
    found = []
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, defs):
                visit(child, f"{where}.{child.name}")
                continue
            if (isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load)
                    and getattr(child, "id", getattr(child, "attr", None)) == "_mix"):
                found.append(where)
            visit(child, where)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_only_the_two_takers_mix_outputs():
    assert mix_readers() == ["sampling._take", "sampling._take_lockstep"]


def test_mix_readers_are_found(tmp_path):
    (tmp_path / "a.py").write_text("from . import b\n\n"
                                   "def _take(z):\n    return _mix(z)\n\n"
                                   "def helper(z):\n    return b._mix(z) + _mix(z)\n\n"
                                   "class Rng:\n    def draw(self):\n        mixed = _mix\n"
                                   "        return mixed(self.z)\n\nTABLE = _mix(0)\n")
    (tmp_path / "b.py").write_text("def _mix(z):\n    return z\n\n_mix = _mix\n")
    assert mix_readers(tmp_path) == ["a._take", "a.helper", "a.helper", "a.Rng.draw", "a", "b"]


def test_no_randomness_besides_the_generator():
    assert other_randomness() == []


def test_other_randomness_is_found(tmp_path):
    (tmp_path / "a.py").write_text("import random\nfrom random import choice\n")
    (tmp_path / "b.py").write_text("import numpy as np\n\nx = np.random.default_rng(0)\n")
    (tmp_path / "c.py").write_text("from numpy import random\nimport numpy.random\n"
                                   "from numpy.random import Generator\n")
    (tmp_path / "d.py").write_text("import numpy\nfrom . import random\n"
                                   "y = numpy.random\nz = rng.random()\n")
    assert other_randomness(tmp_path) == ["a:1", "a:2", "b:3", "c:1", "c:2", "c:3", "d:3"]


def leftovers(src: Path = SRC) -> list[str]:
    """`module:name` of each name a module imports but never reads (a name
    in `__all__` counts as read), then of each `_`-prefixed module-level
    name (dunders aside) that no module in `src` reads or imports."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    read = {}
    for name, tree in trees.items():
        read[name] = {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read[name].update(ast.literal_eval(node.value))
    referenced = set().union(*read.values())
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                found += [f"{name}:{bound}" for alias in node.names
                          if (bound := alias.asname or alias.name.split(".")[0])
                          not in read[name]]
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{name}:{d}" for d in defined if d.startswith("_")
                      and not (d.startswith("__") and d.endswith("__")) and d not in referenced]
    return found


def test_nothing_left_over():
    assert leftovers() == []


def test_leftovers_are_found(tmp_path):
    (tmp_path / "a.py").write_text("from __future__ import annotations\n"
                                   "import math\nimport os.path\nimport numpy as np\n"
                                   "from .b import _used, g as h\n\n"
                                   "_UNREAD = 1\n_A, (_B, c) = 2, (3, 4)\n__all__ = ['np']\n\n"
                                   "def f(x):\n    return _used(os.path.sep, _B)\n")
    (tmp_path / "b.py").write_text("def _used(*a):\n    return a\n\n"
                                   "def _by_attribute():\n    pass\n\n"
                                   "class _Unused:\n    pass\n\ng = _used\n")
    (tmp_path / "c.py").write_text("from . import b\n\nb._by_attribute()\n")
    assert leftovers(tmp_path) == ["a:math", "a:h", "a:_UNREAD", "a:_A", "b:_Unused"]


def mutable_dataclasses(src: Path = SRC) -> list[str]:
    """`module.Class` of each class decorated with `dataclass` (by name or as
    an attribute, called or not) without `frozen=True`."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                target = call.func if call else deco
                if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                    continue
                if not call or not any(k.arg == "frozen" and isinstance(k.value, ast.Constant)
                                       and k.value.value is True for k in call.keywords):
                    found.append(f"{path.stem}.{node.name}")
    return found


def test_every_dataclass_is_frozen():
    assert mutable_dataclasses() == []


def test_mutable_dataclasses_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n"
        "@dataclass\nclass Bare:\n    x: int\n\n"
        "@dataclass(frozen=True)\nclass Frozen:\n    x: int\n\n"
        "@dataclasses.dataclass(order=True)\nclass Ordered:\n    x: int\n\n"
        "@dataclass(frozen=False)\nclass Thawed:\n    x: int\n\n"
        "@dataclasses.dataclass(frozen=True, eq=False)\nclass Attribute:\n    x: int\n\n"
        "class Plain:\n    @dataclass\n    class Nested:\n        x: int\n")
    assert mutable_dataclasses(tmp_path) == ["a.Bare", "a.Ordered", "a.Thawed", "a.Nested"]


# The verification oracles: the tests check the program against them, and no
# command runs them.
ORACLES = ("autodiff.gradient", "autodiff.finite_diff_gradient", "oracle.exact_pu_risks")


def _references(node: ast.AST) -> Counter:
    """How often each name is referenced under `node`: as a Name, as an
    Attribute, or as an imported name."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in n.names)
    return found


def unreferenced(src: Path = SRC, allowed=ORACLES) -> list[str]:
    """`module.name` (or `module.Class.method`) of each public module-level
    function and class, and each public method of a module-level class, that
    nothing in `src` references outside its own definition; names in
    `allowed` aside."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            members = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{module}.{node.name}.{m.name}", m)
                            for m in node.body if isinstance(m, defs)]
            for full, member in members:
                if (not member.name.startswith("_") and full not in allowed
                        and everywhere[member.name] == _references(member)[member.name]):
                    found.append(full)
    return found


def test_no_test_only_code():
    assert unreferenced() == []


def test_unreferenced_code_is_found(tmp_path):
    (tmp_path / "a.py").write_text("from .b import used\n\n"
                                   "def planted(n):\n    return planted(n - 1) if n else used\n\n"
                                   "def oracle():\n    pass\n\n"
                                   "class Box:\n    def put(self):\n        return self.take()\n\n"
                                   "    def take(self):\n        pass\n\n"
                                   "    def _hidden(self):\n        pass\n")
    (tmp_path / "b.py").write_text("def used():\n    pass\n\n"
                                   "def by_attribute():\n    pass\n\n"
                                   "def _private():\n    pass\n\nx = Box()\n"
                                   "y = a.by_attribute\n")
    assert unreferenced(tmp_path, ("a.oracle",)) == ["a.planted", "a.Box.put"]


def unpassed_parameters(src: Path = SRC, exempt=("cli.main",)) -> list[str]:
    """`module.function(parameter)` (or `module.Class.method(parameter)`,
    nested functions by their path) of each parameter with a default, of a
    function or method that `src` calls by name (dunders aside), that no
    such call passes: by keyword, by position (after `self` or `cls` for a
    method called as an attribute) or through `*` or `**`; names in `exempt`
    aside.  Every call of that name counts, whatever it resolves to.  A
    function that `src` reaches only through a table (`oracle.ALL_SUITES`,
    `cli.HANDLERS`) is called by no name and is out of this check's reach."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    calls = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls[getattr(node.func, "id", getattr(node.func, "attr", None))].append(node)
    found = []

    def check(fn, where, offset):
        if (fn.name.startswith("__") and fn.name.endswith("__")) or where in exempt:
            return
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            p for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if not defaulted or not calls[fn.name]:
            return
        passed = set()
        for call in calls[fn.name]:
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                return
            passed.update(p.arg for p in positional[offset:offset + len(call.args)])
            passed.update(k.arg for k in call.keywords)
        found.extend(f"{where}({p.arg})" for p in defaulted if p.arg not in passed)

    def visit(node, where, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{where}.{child.name}", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                check(child, f"{where}.{child.name}", int(in_class and not static))
                visit(child, f"{where}.{child.name}", False)
            else:
                visit(child, where, in_class)

    for module, tree in trees.items():
        visit(tree, module, False)
    return found


def test_no_test_only_parameters():
    assert unpassed_parameters() == []


def test_test_only_parameters_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, flag=False, *, k=1, both=2):\n    return x\n\n"
        "def g(x, y=0, z=0):\n    return f(x, k=y)\n\n"
        "def table_only(x, knob=3):\n    return x\n\n"
        "def main(argv=None):\n    return g(1, 2) + f(0, both=1)\n\n"
        "class Box:\n    def __init__(self, size=1):\n        self.size = size\n\n"
        "    def put(self, item, where=0, how=0):\n        return item\n\n"
        "    @staticmethod\n    def make(n=1, m=2):\n"
        "        def inner(q=0):\n            return q\n        return inner()\n\n"
        "    def spread(self, a=0, b=0):\n        return a\n\n"
        "TABLE = (table_only,)\n")
    (tmp_path / "b.py").write_text(
        "from .a import Box\n\nbox = Box()\nbox.put(1, 2)\nBox.make(5)\n"
        "box.spread(**{'a': 1})\n")
    assert unpassed_parameters(tmp_path, ("a.main",)) == [
        "a.f(flag)", "a.g(z)", "a.Box.put(how)", "a.Box.make(m)", "a.Box.make.inner(q)"]


BENCH = SRC.parent.parent / "bench"

# Run in a fresh interpreter: importing `bench/run.py` sets the BLAS thread
# variables, and the tracer patches the vpu modules; `-B` keeps bytecode out
# of `bench/`, so the run writes only under its temporary directory.  Each
# workload's twin keeps its flags and separation on fewer rows, epochs and
# trials; one traced set-up and iteration of it must fail no command and
# measure every per-layer metric the workload runs, which is what makes a
# traced benchmark run correct.  A workload class with no twin here fails
# the run.
TRACED_TWINS = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from run import SPANS_PER_SECOND, import_program, per_layer
import_program()
from tracing import Summary, Tracer
from workloads import WORKLOADS, Run, ToolkitWorkload, TrainWorkload

def twin(w):
    if type(w) is TrainWorkload:
        return TrainWorkload(w.name, w.why, w.separation, m=60, train_flags=w.train_flags,
                             epochs=2, n=240, n_test=200)
    if type(w) is ToolkitWorkload:
        return ToolkitWorkload(w.name, w.why, n_test=500, trials=20, m=60, n=240)
    raise TypeError(f"no small twin of {w.name}, a {type(w).__name__}")

problems = {}
for name, workload in WORKLOADS.items():
    small, run = twin(workload), Run(os.path.join(sys.argv[2], name), seed=0)
    tracer = Tracer(name, "twin", capacity=SPANS_PER_SECOND)
    for kind, body in (("setup", small.setup), ("iteration", small.iteration)):
        with tracer:
            tracer.root(kind, lambda: body(run))
    problems[name] = run.errors + [
        f"metric {metric} was not measured" for metric, value in per_layer(Summary(tracer)).items()
        if value is None and metric not in workload.idle_layers]
print(json.dumps(problems))
"""


def test_traced_workloads_measure_every_layer(tmp_path):
    done = subprocess.run([sys.executable, "-B", "-c", TRACED_TWINS, str(BENCH), str(tmp_path)],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    problems = json.loads(done.stdout.splitlines()[-1])
    assert {"train-default", "train-ablation", "toolkit-io"} <= set(problems)
    failed = {name: found for name, found in problems.items() if found}
    assert not failed, failed


def test_cli_import_loads_no_multiprocessing():
    # loaded with the entry point, it cost every command about 1 MB of
    # resident memory, also the commands that never train
    code = "import sys, vpu.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "False"
