"""Every module-level import in the package is used, every module-level
private name is referenced somewhere in it, the front ends do not branch on
the kind of a statistic or a model, each model kind has one kernel, a
marginal alone keeps its cdf table, each statistic kind has one survival
read, the oracle imports nothing of the analytic pipeline, the MVG sums
read theta(K) from one lattice, not subset by subset, one kernel
searches a marginal's tail cutoff, the CLI leaves the route to a moment
to `moments`, and no exact sum reads a list copy of an array (no linter is
a dependency)."""

import ast
import importlib
from pathlib import Path

import pytest

from lifemoments import JointModel, LifemomentsError, MarginalDist

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lifemoments"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports and never read, except on lines
    marked ``# noqa: F401``; names listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from x import y  # noqa: F401\n"
        "from x import z as w\n"
        "__all__ = ['w']\n"
        "os.path.join('a')\n"
    )
    assert unused_imports(source) == ["math (line 2)"]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and constants named ``_x`` (not dunders)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module of ``sources`` reads, imports
    or reaches as an attribute; a definition does not count as a reference."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]


def test_no_unreferenced_private_names():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_checker_flags_unreferenced_private_names():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_DEAD: int = 2\n"
            "__all__ = []\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _dead():\n"
            "    pass\n"
            "class _Shared:\n"
            "    pass\n"
        ),
        "b.py": "from .a import _helper, _Shared\nimport a\na._attr_only()\n_helper()\n",
        "c.py": "def _attr_only():\n    pass\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _DEAD (line 2)", "a.py: _dead (line 6)"]


def type_test_targets(source: str) -> set[str]:
    """Class names that ``isinstance`` or ``issubclass`` calls test against,
    tuples unpacked; a dotted name counts by its last part."""
    targets = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            continue
        classes = node.args[1]
        for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
            if isinstance(cls, ast.Name):
                targets.add(cls.id)
            elif isinstance(cls, ast.Attribute):
                targets.add(cls.attr)
    return targets


def model_kinds() -> set[str]:
    kinds, todo = set(), [JointModel]
    while todo:
        cls = todo.pop()
        kinds.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return kinds


def test_front_ends_do_not_branch_on_statistic_or_model_kind():
    # the statistic answers for itself whether it is a rank or a system, and
    # the model kind supplies its own closed forms
    assert type_test_targets((PACKAGE / "cli.py").read_text()) & (model_kinds() | {"SystemStructure"}) == set()
    assert type_test_targets((PACKAGE / "oracle.py").read_text()) & {"SystemStructure"} == set()


def test_checker_finds_type_test_targets():
    source = (
        "import lifemoments.systems as s\n"
        "isinstance(x, MvgModel)\n"
        "if isinstance(y, (dict, s.SystemStructure)):\n"
        "    issubclass(type(y), JointModel)\n"
        "isinstance(x)\n"
        "callable(x, list)\n"
    )
    assert type_test_targets(source) == {"MvgModel", "dict", "SystemStructure", "JointModel"}
    assert {"JointModel", "ExplicitFinitePMF", "MultinomialModel", "IndependentMarginals", "MvgModel"} <= model_kinds()


def subclasses(source: str, *bases: str) -> dict[str, ast.ClassDef]:
    """Classes of ``source`` deriving from one of ``bases``, directly or
    through another class of ``source``, in source order."""
    classes = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)}

    def derives(name: str) -> bool:
        parents = [b.id for b in classes[name].bases if isinstance(b, ast.Name)]
        return any(p in bases or p in classes and derives(p) for p in parents)

    return {name: cls for name, cls in classes.items() if derives(name)}


def methods_and_stores(cls: ast.ClassDef) -> tuple[list[str], list[str]]:
    """The methods ``cls`` defines and the ``self`` attributes it assigns."""
    methods = [n.name for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    stores = [
        node.attr for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    ]
    return methods, stores


def kernel_breaches(source: str, base: str = "JointModel") -> list[str]:
    """Subclasses of ``base`` in ``source``, direct or through another class
    of it, that define no ``counts``, or that define ``rect_series``,
    ``class_counts`` or any other method or ``self`` attribute whose name
    mentions a count: a kind has one kernel, and ``base`` alone keeps the
    class-count table."""
    breaches = []
    for name, cls in subclasses(source, base).items():
        methods, stores = methods_and_stores(cls)
        if "counts" not in methods:
            breaches.append(f"{name}: no counts")
        breaches += [f"{name}.{m}" for m in methods if m == "rect_series" or "count" in m and m != "counts"]
        breaches += [f"{name}: self.{a}" for a in stores if "count" in a]
    return breaches


def test_every_model_kind_has_one_kernel():
    assert kernel_breaches((PACKAGE / "distributions.py").read_text()) == []


def test_checker_flags_second_kernels():
    source = (
        "class JointModel:\n"
        "    def class_counts(self): pass\n"
        "class A(JointModel):\n"
        "    def counts(self): pass\n"
        "class B(A):\n"
        "    def counts(self): pass\n"
        "    def rect_series(self): pass\n"
        "    def _class_count_table(self): pass\n"
        "class C(JointModel):\n"
        "    def __init__(self):\n"
        "        self._counts_table = None\n"
        "        self.n = 2\n"
        "class D:\n"
        "    def rect_series(self): pass\n"
    )
    assert kernel_breaches(source) == [
        "B.rect_series", "B._class_count_table", "C: no counts", "C: self._counts_table",
    ]


def cdf_copies(source: str) -> list[str]:
    """Model kinds and marginal families in ``source`` (subclasses of
    ``JointModel`` or ``MarginalDist``) that define a method or assign a
    ``self`` attribute named ``_cdf...``: ``MarginalDist`` alone keeps a
    marginal's cdf table, and a model reads its marginals' tables."""
    breaches = []
    for name, cls in subclasses(source, "JointModel", "MarginalDist").items():
        methods, stores = methods_and_stores(cls)
        breaches += [f"{name}.{m}" for m in methods if m.startswith("_cdf")]
        breaches += [f"{name}: self.{a}" for a in stores if a.startswith("_cdf")]
    return breaches


def test_one_cdf_table_per_marginal():
    assert cdf_copies((PACKAGE / "distributions.py").read_text()) == []


def test_checker_flags_cdf_copies():
    source = (
        "class MarginalDist:\n"
        "    def _cdf_prefix(self): pass\n"
        "class A(MarginalDist):\n"
        "    def __init__(self):\n"
        "        self._cdf = None\n"
        "        self.probs = None\n"
        "class B(A):\n"
        "    def _cdfs(self): pass\n"
        "    def cdf(self): pass\n"
        "class JointModel:\n"
        "    pass\n"
        "class C(JointModel):\n"
        "    def __init__(self):\n"
        "        self._cdf_columns = []\n"
        "class D:\n"
        "    def __init__(self):\n"
        "        self._cdf = None\n"
    )
    assert cdf_copies(source) == ["A: self._cdf", "B._cdfs", "C: self._cdf_columns"]


def survival_read_breaches(source: str) -> list[str]:
    """Methods of a statistic kind (a class that defines ``series``), other
    than ``series`` and the constructor, that take a ``model``, and any
    method named ``orderstat_survival``: a statistic reads a model's
    survival through the threshold range of ``series`` alone, and a model
    kind has no single-threshold order-statistic read."""
    breaches = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        is_statistic = any(m.name == "series" for m in methods)
        for m in methods:
            reads_model = any(a.arg == "model" for a in m.args.args + m.args.kwonlyargs)
            if m.name == "orderstat_survival" or is_statistic and reads_model and m.name not in ("series", "__init__"):
                breaches.append(f"{cls.name}.{m.name}")
    return breaches


@pytest.mark.parametrize("name", ["orderstats.py", "systems.py", "distributions.py"])
def test_each_statistic_has_one_survival_read(name):
    assert survival_read_breaches((PACKAGE / name).read_text()) == []


def test_checker_flags_second_survival_reads():
    source = (
        "class Stat:\n"
        "    def __init__(self, model): pass\n"
        "    def series(self, model, m_hi, m_lo=0): pass\n"
        "    def at(self, model, m): pass\n"
        "    def values(self, cols): pass\n"
        "class Other:\n"
        "    def at(self, model, m): pass\n"
        "class Kind:\n"
        "    def orderstat_survival(self, r, m): pass\n"
        "    def orderstat_survival_series(self, r, m_hi): pass\n"
        "def orderstat_survival(model): pass\n"
    )
    assert survival_read_breaches(source) == ["Stat.at", "Kind.orderstat_survival"]


# what the oracle may import from the package: the statistic's definition,
# the model and marginal classes it samples, the parameter set of an MVG,
# the error classes, the integer rule and the moment-order rule; any other
# package name is analytic machinery
ORACLE_IMPORTS = {("systems", "_statistic"), ("mvg", "MvgParams"), ("errors", "_as_int"), ("errors", "_as_order")}
ORACLE_IMPORT_KINDS = {"distributions": (JointModel, MarginalDist), "errors": (LifemomentsError,)}


def oracle_import_breaches(source: str) -> list[str]:
    """Package names that ``source`` imports, relatively or as
    ``lifemoments.*``, beyond ``ORACLE_IMPORTS`` and the classes of
    ``ORACLE_IMPORT_KINDS``; each as ``module.name``."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            breaches += [a.name for a in node.names if a.name.split(".")[0] == "lifemoments"]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "lifemoments"):
            module = (node.module or "").removeprefix("lifemoments").lstrip(".")
            breaches += [f"{module}.{a.name}" for a in node.names if not oracle_may_import(module, a.name)]
    return breaches


def oracle_may_import(module: str, name: str) -> bool:
    if (module, name) in ORACLE_IMPORTS:
        return True
    if module not in ORACLE_IMPORT_KINDS:
        return False
    value = getattr(importlib.import_module(f"lifemoments.{module}"), name, None)
    return isinstance(value, type) and issubclass(value, ORACLE_IMPORT_KINDS[module])


def test_oracle_reuses_no_analytic_machinery():
    assert oracle_import_breaches((PACKAGE / "oracle.py").read_text()) == []


def test_checker_flags_oracle_imports():
    source = (
        "import numpy as np\n"
        "from itertools import combinations\n"
        "from .distributions import Poisson, MvgModel, rect_prob, _support_clamp\n"
        "from .errors import CapacityError, _as_index_set\n"
        "from .systems import _statistic, alpha_coefficients\n"
        "from .mvg import MvgParams, mvg_min_param\n"
        "from .orderstats import _moment\n"
        "from . import cli\n"
        "from lifemoments.distributions import FinitePMF, _PrefixCache\n"
        "import lifemoments.orderstats\n"
        "def f():\n"
        "    from .mvg import sample_nothing\n"
    )
    assert oracle_import_breaches(source) == [
        "distributions.rect_prob", "distributions._support_clamp", "errors._as_index_set",
        "systems.alpha_coefficients", "mvg.mvg_min_param", "orderstats._moment", ".cli",
        "distributions._PrefixCache", "lifemoments.orderstats", "mvg.sample_nothing",
    ]


def callers(source: str, name: str, methods: bool = False) -> list[str]:
    """Where ``source`` uses ``name``: "import" for a module-level import
    binding it, and the enclosing ``Class.method`` or function of each call
    (``<module>`` outside any), in source order; with ``methods``, calls of
    an attribute ``name`` (``self.name(...)``) count too."""
    found = []

    def called(func) -> bool:
        return isinstance(func, ast.Name) and func.id == name or (
            methods and isinstance(func, ast.Attribute) and func.attr == name
        )

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and node is tree:
                found.extend("import" for a in child.names if (a.asname or a.name) == name)
            elif isinstance(child, ast.Call) and called(child.func):
                found.append(scope or "<module>")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    tree = ast.parse(source)
    visit(tree, "")
    return found


def test_subset_sums_read_the_lattice_not_one_subset_at_a_time():
    # the closed forms and the MVG class counts read theta(K) from the subset
    # lattice of module mvg; one subset's parameter is asked for only by the
    # marginal laws
    assert callers((PACKAGE / "systems.py").read_text(), "mvg_min_param") == []
    assert callers((PACKAGE / "distributions.py").read_text(), "mvg_min_param") == ["import", "MvgModel.marginals"]


def test_checker_finds_callers():
    source = (
        "from .mvg import mvg_min_param, other\n"
        "import mvg_min_param as renamed\n"
        "mvg_min_param(1)\n"
        "class A:\n"
        "    def f(self):\n"
        "        return [mvg_min_param(k) for k in ()]\n"
        "    def g(self):\n"
        "        def inner():\n"
        "            return mvg_min_param\n"
        "        return self.mvg_min_param(2)\n"
        "def h():\n"
        "    from .mvg import mvg_min_param\n"
        "    return other(mvg_min_param(3))\n"
    )
    assert callers(source, "mvg_min_param") == ["import", "<module>", "A.f", "h"]
    assert callers(source, "mvg_min_param", methods=True) == ["import", "<module>", "A.f", "A.g", "h"]


def test_one_tail_kernel_runs_the_cutoff_search():
    # quantile, tail_moment and the generic planner read a marginal's tail
    # through one kernel, and only it searches for the cutoff
    found = {path.name: callers(path.read_text(), "_tail_cutoff", methods=True) for path in PACKAGE.glob("*.py")}
    assert {name: where for name, where in found.items() if where} == {"distributions.py": ["MarginalDist._tail_bounds"]}


def test_the_guide_table_is_the_only_finite_support_sampler():
    # finite supports draw their indices from the oracle's guide table, the
    # indices Generator.choice draws without its binary search per draw
    found = {path.name: callers(path.read_text(), "choice", methods=True) for path in PACKAGE.glob("*.py")}
    assert {name: where for name, where in found.items() if where} == {}


# the moment modules, whose private pieces and factorial conversion make up
# the route to a moment; only `moments` picks that route
ROUTE_MODULES = ("orderstats", "systems", "mvg")


def route_imports(source: str) -> list[str]:
    """Names that ``source`` imports from ``ROUTE_MODULES``, relatively or
    as ``lifemoments.*``, that are private or are ``factorial_to_raw``;
    each as ``module.name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "lifemoments"):
            module = (node.module or "").removeprefix("lifemoments").lstrip(".")
            if module in ROUTE_MODULES:
                found += [f"{module}.{a.name}" for a in node.names
                          if a.name.startswith("_") or a.name == "factorial_to_raw"]
    return found


def test_the_cli_leaves_the_route_to_moments():
    assert route_imports((PACKAGE / "cli.py").read_text()) == []
    found = {path.name: callers(path.read_text(), "factorial_moments", methods=True) for path in PACKAGE.glob("*.py")}
    assert {name: where for name, where in found.items() if where} == {"systems.py": ["moments"]}


def test_checker_flags_route_imports():
    source = (
        "from .mvg import MvgParams, factorial_to_raw\n"
        "from .orderstats import _check_request, approx_moment\n"
        "from .systems import SystemStructure, _statistic, moments\n"
        "from .errors import _as_int\n"
        "from lifemoments.orderstats import _moment\n"
        "from .distributions import _support_clamp\n"
        "def f():\n"
        "    from .mvg import _lattice\n"
    )
    assert route_imports(source) == [
        "mvg.factorial_to_raw", "orderstats._check_request", "systems._statistic",
        "orderstats._moment", "mvg._lattice",
    ]


def _is_tolist(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "tolist"


def _is_fsum(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return isinstance(func, ast.Attribute) and func.attr == "fsum" or isinstance(func, ast.Name) and func.id == "fsum"


def listed_fsums(source: str) -> list[int]:
    """Lines of ``math.fsum`` (or a bare ``fsum``) calls that sum a list copy
    of an array: an argument that is a ``.tolist()`` call, or a comprehension
    variable drawn from one."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if _is_fsum(node) and node.args and _is_tolist(node.args[0]):
            lines.add(node.lineno)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            drawn = {g.target.id for g in node.generators if _is_tolist(g.iter) and isinstance(g.target, ast.Name)}
            lines.update(
                call.lineno for call in ast.walk(node)
                if _is_fsum(call) and call.args and isinstance(call.args[0], ast.Name) and call.args[0].id in drawn
            )
    return sorted(lines)


def test_exact_sums_read_array_buffers():
    # math.fsum reads the doubles of memoryview(array) as they are; a
    # .tolist() copy gives the same sum and costs a list
    found = {path.name: listed_fsums(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_checker_flags_list_fed_fsums():
    source = (
        "import math\n"
        "from math import fsum\n"
        "a = math.fsum(x.tolist())\n"
        "b = fsum((1.0 - y).tolist())\n"
        "c = [math.fsum(row) for row in t.tolist()]\n"
        "d = math.fsum(memoryview(x))\n"
        "e = [math.fsum(memoryview(row)) for row in t]\n"
        "f = math.fsum(v for v in x)\n"
        "g = sum(x.tolist())\n"
        "h = [math.fsum(w) for row in t.tolist() for w in row]\n"
    )
    assert listed_fsums(source) == [3, 4, 5]
