"""Static checks on the package source (no linter is a dependency)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "helmlab"
ALL_MODULES = sorted(SRC.glob("*.py"))
# __init__.py imports names only to re-export them
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_module_imports(source: str) -> list:
    """Names bound by a module-level import and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Optional\nsys.exit\n"
    assert unused_module_imports(source) == ["line 1: os", "line 3: Optional"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_module_imports(path.read_text()) == []


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def unused_locals(source: str) -> list:
    """Names a function assigns and never reads, in its own body or in a
    function nested in it.  Names starting with `_` are exempt, and so are
    the names a function declares global or nonlocal; parameters are not
    checked."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(func)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        assigned, declared, stack = {}, set(), list(func.body)
        while stack:  # the function's own scope: no nested definition
            node = stack.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assigned[node.id] = min(node.lineno,
                                        assigned.get(node.id, node.lineno))
            if not isinstance(node, SCOPES):
                stack.extend(ast.iter_child_nodes(node))
        found += [(line, f"line {line}: {func.name}.{name}")
                  for name, line in assigned.items()
                  if name not in read | declared and not name.startswith("_")]
    return [where for _, where in sorted(found)]


def test_scanner_flags_an_unused_local():
    source = ("total = 0\n"
              "def f(items, unused_parameter):\n"
              "    dead = 1\n"
              "    _exempt = 2\n"
              "    for j, item in enumerate(items):\n"
              "        print(item)\n"
              "    seen = []\n"
              "    def g():\n"
              "        global total\n"
              "        total = len(seen)\n"
              "        inner = 3\n"
              "    return g\n")
    assert unused_locals(source) == ["line 3: f.dead", "line 5: f.j",
                                     "line 11: g.inner"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def nested_relative_imports(source: str) -> list:
    """Relative imports anywhere but at module level."""
    tree = ast.parse(source)
    return sorted(f"line {node.lineno}: from {'.' * node.level}{node.module or ''}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level >= 1
                  and node not in tree.body)


def test_scanner_flags_a_nested_relative_import():
    source = ("from .a import x\n"
              "import os\n"
              "def f():\n"
              "    from .b import y\n"
              "    from os import path\n"
              "    class C:\n"
              "        from ..c import z\n")
    assert nested_relative_imports(source) == ["line 4: from .b",
                                               "line 7: from ..c"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_nested_relative_imports(path):
    assert nested_relative_imports(path.read_text()) == []


ROOT = SRC.parents[1]
REFERENCING = ALL_MODULES + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))


def _names(node, skip=()) -> set:
    """Names, attributes, imported names and string constants in node, not
    looking inside the nodes of `skip`."""
    names = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if any(sub is s for s in skip):
            continue
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
        stack.extend(ast.iter_child_nodes(sub))
    return names


def unreferenced_definitions(modules: dict, others: list) -> list:
    """Module-level functions and classes of `modules` (name -> source), and
    the methods and properties of those classes, that no source names: not
    as a name, an attribute, an imported or re-exported name, or a string
    holding exactly the name (getattr and patching).  Uses inside a
    definition's own body do not count for it.  Dunder methods are not
    checked, nor the methods of a class with a base from outside `modules`,
    which may be called by that base (such as `error` on a parser)."""
    trees = [(module, ast.parse(source)) for module, source in modules.items()]
    trees += [(None, ast.parse(source)) for source in others]
    package = {node.name for module, tree in trees if module
               for node in tree.body if isinstance(node, ast.ClassDef)}
    defs = []
    used = set()
    for module, tree in trees:
        for node in tree.body:
            if not (module and isinstance(node, (ast.FunctionDef, ast.ClassDef))):
                used |= _names(node)
                continue
            defs.append((node.name, f"{module}: {node.name}"))
            methods = []
            if isinstance(node, ast.ClassDef) and all(
                    isinstance(b, ast.Name) and b.id in package for b in node.bases):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("__")]
            for m in methods:
                defs.append((m.name, f"{module}: {node.name}.{m.name}"))
                used |= _names(m) - {node.name, m.name}
            used |= _names(node, skip=methods) - {node.name}
    return sorted(where for name, where in defs if name not in used)


def test_scanner_flags_an_unreferenced_definition():
    module = ("import os\n"
              "def used():\n    return os.sep\n"
              "def dead():\n    return used()\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Exported:\n    pass\n"
              "class Patched:\n    pass\n"
              "class Dead:\n    pass\n")
    others = ["from m import Exported\n", "setattr(m, 'Patched', None)\n"]
    assert unreferenced_definitions({"m.py": module}, others) == [
        "m.py: Dead", "m.py: dead", "m.py: recursive"]


def test_scanner_flags_an_unreferenced_method():
    module = ("import argparse\n"
              "class Base:\n"
              "    def __init__(self):\n        self.kept()\n"
              "    def kept(self):\n        return self.helper\n"
              "    @property\n    def helper(self):\n        return 1\n"
              "    def recursive(self):\n        return self.recursive()\n"
              "class Child(Base):\n"
              "    def dead(self):\n        return Child\n"
              "class Parser(argparse.ArgumentParser):\n"
              "    def error(self, message):\n        pass\n")
    others = ["from m import Child, Parser\n"]
    assert unreferenced_definitions({"m.py": module}, others) == [
        "m.py: Base.recursive", "m.py: Child.dead"]


def test_no_unreferenced_definitions():
    modules = {p.name: p.read_text() for p in MODULES}
    others = [p.read_text() for p in REFERENCING if p not in MODULES]
    assert unreferenced_definitions(modules, others) == []


PARTITION_NAMES = ("partition", "breakpoints")
# a mesh states which subinterval owns each of its elements
NODE_NAMES = ("nodes",)


def partition_lookups(source: str, names=PARTITION_NAMES) -> list:
    """`searchsorted` calls that look points up in a partition: the first
    argument is a name or attribute called `partition` or `breakpoints`, or
    one of `names` if given (`NODE_NAMES` for lookups over mesh nodes)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func, first = node.func, node.args[0]
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        target = first.attr if isinstance(first, ast.Attribute) else getattr(first, "id", None)
        if callee == "searchsorted" and target in names:
            found.append(f"line {node.lineno}: searchsorted({target}, ...)")
    return found


def test_scanner_flags_a_partition_lookup():
    source = ("import numpy as np\n"
              "from numpy import searchsorted\n"
              "np.searchsorted(self.partition, x)\n"
              "np.searchsorted(nodes, self.partition)\n"
              "searchsorted(breakpoints, x, side='right')\n"
              "np.searchsorted(bp, x)\n"
              "np.clip(breakpoints, 0, 1)\n")
    assert partition_lookups(source) == [
        "line 3: searchsorted(partition, ...)",
        "line 5: searchsorted(breakpoints, ...)"]


def test_scanner_flags_a_mesh_node_lookup():
    source = ("import numpy as np\n"
              "np.searchsorted(nodes, part - tol)\n"
              "np.searchsorted(mesh.nodes, x, side='right')\n"
              "np.searchsorted(self.partition, x)\n"
              "np.searchsorted(node_list, x)\n")
    assert partition_lookups(source, NODE_NAMES) == [
        "line 2: searchsorted(nodes, ...)",
        "line 3: searchsorted(nodes, ...)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_mesh_node_lookup(path):
    """Which subinterval owns an element is stated by `fem.Mesh1D`."""
    assert partition_lookups(path.read_text(), NODE_NAMES) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "coeffs.py"],
                         ids=lambda p: p.name)
def test_partition_lookup_only_in_coeffs(path):
    """Which subinterval owns a point is decided by `coeffs.segment_of`."""
    assert partition_lookups(path.read_text()) == []


LOOKUP_NAMES = ("segment_of", "segmentwise")


def point_lookups(source: str, names=LOOKUP_NAMES) -> list:
    """References to a function that looks points up in a partition: a
    name, attribute or imported name in `names`, called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in names:
            found.append((node.lineno, f"line {node.lineno}: {name}"))
    return [line for _lineno, line in sorted(found)]


def test_scanner_flags_a_point_lookup():
    source = ("from .coeffs import constant, segment_of\n"
              "from . import coeffs\n"
              "idx = segment_of(partition, x)\n"
              "coeffs.segmentwise(bp, x, f)\n"
              "mesh.elements_of(j)\n"
              "segment_count(partition)\n"
              "f = coeffs.segment_of\n")
    assert point_lookups(source) == [
        "line 1: segment_of", "line 3: segment_of", "line 4: segmentwise",
        "line 7: segment_of"]


def test_experiments_look_up_no_point():
    """The mesh states which layer owns each element of a probe level."""
    assert point_lookups((SRC / "experiments.py").read_text()) == []


POOL_NAMES = ("ThreadPoolExecutor", "ProcessPoolExecutor")


def pools_outside_with(source: str) -> list:
    """Calls that build a worker pool (a name or attribute in `POOL_NAMES`)
    and are not themselves the context expression of a `with` item, so the
    pool could outlive its call: leaving a `with` block joins the pool."""
    tree = ast.parse(source)
    managed = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, (ast.With, ast.AsyncWith))
               for item in node.items}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in managed:
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if callee in POOL_NAMES:
            found.append((node.lineno, f"line {node.lineno}: {callee}(...)"))
    return [line for _lineno, line in sorted(found)]


def test_scanner_flags_a_pool_outside_with():
    source = ("import contextlib\n"
              "import concurrent.futures as cf\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "with ThreadPoolExecutor(max_workers=2) as pool:\n"
              "    pass\n"
              "pool = ThreadPoolExecutor(2)\n"
              "with open('f') as fh, cf.ProcessPoolExecutor() as pool:\n"
              "    pass\n"
              "def run():\n"
              "    return cf.ProcessPoolExecutor(4).map(abs, [1])\n"
              "with contextlib.closing(ThreadPoolExecutor()) as pool:\n"
              "    pass\n")
    assert pools_outside_with(source) == [
        "line 6: ThreadPoolExecutor(...)",
        "line 10: ProcessPoolExecutor(...)",
        "line 11: ThreadPoolExecutor(...)"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_pools_are_with_items(path):
    """No worker pool outlives the call that builds it."""
    assert pools_outside_with(path.read_text()) == []


LAPACK_MODULES = ("lapack", "cython_lapack")


def lapack_imports(source: str) -> list:
    """Imports of `scipy.linalg.lapack` or `scipy.linalg.cython_lapack` or
    of names from them, and the attributes `linalg.lapack` and
    `linalg.cython_lapack` (reached through `import scipy.linalg`)."""
    modules = tuple(f"scipy.linalg.{name}" for name in LAPACK_MODULES)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {alias.name}"
                      for alias in node.names
                      if alias.name.startswith(modules)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith(modules) or (
                    node.module == "scipy.linalg" and any(
                        alias.name in LAPACK_MODULES + ("get_lapack_funcs",)
                        for alias in node.names)):
                found.append(f"line {node.lineno}: from {node.module}")
        elif (isinstance(node, ast.Attribute) and node.attr in LAPACK_MODULES
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "linalg"):
            found.append(f"line {node.lineno}: linalg.{node.attr}")
    return found


def test_scanner_flags_a_lapack_import():
    source = ("from scipy.linalg import lapack\n"
              "import scipy.linalg.lapack as lp\n"
              "from scipy.linalg.lapack import zgtsv\n"
              "from scipy.linalg import get_lapack_funcs, solve\n"
              "import scipy.linalg\n"
              "scipy.linalg.lapack.zgttrf\n"
              "from scipy.linalg import solve_banded\n"
              "from scipy import sparse\n"
              "from scipy.linalg import cython_lapack\n"
              "import scipy.linalg.cython_lapack as cl\n"
              "from scipy.linalg.cython_lapack import __pyx_capi__\n"
              "scipy.linalg.cython_lapack.__pyx_capi__\n"
              "import scipy.linalg.cython_blas\n"
              "from scipy.linalg import cython_blas\n")
    assert lapack_imports(source) == [
        "line 1: from scipy.linalg", "line 2: import scipy.linalg.lapack",
        "line 3: from scipy.linalg.lapack", "line 4: from scipy.linalg",
        "line 9: from scipy.linalg", "line 10: import scipy.linalg.cython_lapack",
        "line 11: from scipy.linalg.cython_lapack", "line 6: linalg.lapack",
        "line 12: linalg.cython_lapack"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_lapack_only_in_fem(path):
    """The choice of LAPACK routine for the banded systems stays in `fem`."""
    assert bool(lapack_imports(path.read_text())) == (path.name == "fem.py")


DENSE_SOLVERS = ("solve", "inv", "lstsq", "matrix_rank")


def dense_linalg_uses(source: str) -> list:
    """Uses of a `linalg` module's `solve`, `inv`, `lstsq` or `matrix_rank`
    (numpy's or scipy's): the attributes `<...>.linalg.<name>` and
    `linalg.<name>`, called or not, and imports of those names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found += [(node.lineno, f"from {node.module} import {alias.name}")
                      for alias in node.names if alias.name in DENSE_SOLVERS]
        elif isinstance(node, ast.Attribute) and node.attr in DENSE_SOLVERS and (
                isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                or isinstance(node.value, ast.Name) and node.value.id == "linalg"):
            found.append((node.lineno, f"linalg.{node.attr}"))
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_scanner_flags_a_dense_solve():
    source = ("import numpy as np\n"
              "from numpy import linalg\n"
              "from numpy.linalg import inv, norm\n"
              "x = np.linalg.solve(a, b)\n"
              "numpy.linalg.lstsq(a, b)\n"
              "linalg.matrix_rank(a)\n"
              "solver = np.linalg.solve\n"
              "np.linalg.norm(a) + np.diag(a).sum()\n"
              "solve(system)\n"
              "system.solve_vector(b)\n"
              "from scipy.linalg import cython_lapack, solve\n")
    assert dense_linalg_uses(source) == [
        "line 3: from numpy.linalg import inv", "line 4: linalg.solve",
        "line 5: linalg.lstsq", "line 6: linalg.matrix_rank",
        "line 7: linalg.solve", "line 11: from scipy.linalg import solve"]


def test_fem_makes_no_dense_solve():
    """Every banded system, at every size, goes through `fem`'s LAPACK
    binding: no dense solve, inverse or rank test stands beside it."""
    assert dense_linalg_uses((SRC / "fem.py").read_text()) == []


BLAS_PRODUCTS = ("vdot", "dot", "inner", "matmul")


def blas_products(source: str) -> list:
    """Calls of a function or method named `vdot`, `dot`, `inner` or
    `matmul` (numpy's, an array's or another module's), and uses of the `@`
    operator, `@=` included: the products numpy hands to BLAS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in BLAS_PRODUCTS:
                found.append((node.lineno, f"{name}()"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_scanner_flags_a_blas_product():
    source = ("import numpy as np\n"
              "from numpy import vdot\n"
              "s = np.vdot(x, y).real\n"
              "t = x.dot(y) + np.inner(x, y)\n"
              "u = np.matmul(a, b)\n"
              "v = a @ b\n"
              "a @= b\n"
              "w = vdot(x, y)\n"
              "np.sum(x.view(float) * y.view(float))\n"
              "dotted = np.linalg.norm(x)\n"
              "np.einsum('i,i', x, y)\n")
    assert blas_products(source) == [
        "line 3: vdot()", "line 4: dot()", "line 4: inner()",
        "line 5: matmul()", "line 6: @", "line 7: @", "line 8: vdot()"]


def test_error_sums_make_no_blas_call():
    """The probe's error sums are numpy's pairwise sums, so their bits do
    not depend on the BLAS build or its thread count."""
    assert blas_products((SRC / "experiments.py").read_text()) == []


LIBRARY_LOADERS = ("CDLL", "PyDLL", "cdll", "pydll", "LoadLibrary", "find_library")
ENVIRON_WRITERS = ("update", "setdefault", "pop", "popitem", "clear",
                   "__setitem__", "__delitem__")


def process_wide_changes(source: str) -> list:
    """What would change the whole process, not the library's own state:
    `mallopt` named anywhere; ctypes' ways to load a shared library, such
    as libc (`CDLL`, `PyDLL`, `cdll`, `pydll`, `LoadLibrary`,
    `find_library`); writes to `os.environ` (or a bare `environ`): item
    assignment and deletion, its writing methods, `putenv` and `unsetenv`;
    and any string that mentions `GLIBC_TUNABLES`."""

    def environ(node):
        return (isinstance(node, ast.Attribute) and node.attr == "environ"
                or isinstance(node, ast.Name) and node.id == "environ")

    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.attr if isinstance(node, ast.Attribute) else \
            node.id if isinstance(node, ast.Name) else None
        if name == "mallopt" or name in LIBRARY_LOADERS or name in ("putenv", "unsetenv"):
            found.append((node.lineno, name))
        elif isinstance(node, ast.alias) and (
                node.name.split(".")[-1] in ("mallopt", "putenv", "unsetenv")
                or node.name in LIBRARY_LOADERS):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) \
                else [node.target]
            found += [(node.lineno, "environ[]") for target in targets
                      if isinstance(target, ast.Subscript) and environ(target.value)]
        elif isinstance(node, ast.Attribute) and node.attr in ENVIRON_WRITERS \
                and environ(node.value):
            found.append((node.lineno, f"environ.{node.attr}"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "GLIBC_TUNABLES" in node.value:
            found.append((node.lineno, "GLIBC_TUNABLES"))
    return [f"line {line}: {text}" for line, text in sorted(set(found))]


def test_scanner_flags_a_process_wide_change():
    source = ("import ctypes, os\n"
              "libc = ctypes.CDLL('libc.so.6')\n"
              "libc.mallopt(-3, 1 << 30)\n"
              "ctypes.cdll.LoadLibrary(ctypes.util.find_library('c'))\n"
              "os.environ['GLIBC_TUNABLES'] = 'glibc.malloc.trim_threshold=0'\n"
              "os.environ.update(OPENBLAS_NUM_THREADS='1')\n"
              "del os.environ['X']\n"
              "os.putenv('X', '1')\n"
              "from os import environ, unsetenv\n"
              "environ.setdefault('X', '1')\n"
              "environ['Y'] += 'z'\n"
              "os.environ.get('X'), dict(os.environ), 'MALLOC_ARENA_MAX'\n"
              "ctypes.pythonapi, ctypes.CFUNCTYPE(None), ctypes.c_int()\n")
    assert process_wide_changes(source) == [
        "line 2: CDLL", "line 3: mallopt", "line 4: LoadLibrary",
        "line 4: cdll", "line 4: find_library", "line 5: GLIBC_TUNABLES",
        "line 5: environ[]", "line 6: environ.update", "line 7: environ[]",
        "line 8: putenv", "line 9: unsetenv", "line 10: environ.setdefault",
        "line 11: environ[]"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_library_changes_nothing_process_wide(path):
    """The ladder's workspaces keep its memory; the library never tunes
    malloc, loads libc, or writes the environment, which would change the
    whole process that imports it."""
    assert process_wide_changes(path.read_text()) == []
