"""No ``src/`` definition is reachable only from the tests.

An AST scan of ``src/repro/`` lists every top-level function or class and
every non-dunder method.  Each must be referenced somewhere in ``src/``
(outside ``__init__.py`` re-exports), ``examples/``, ``benchmarks/`` or
``perfbench/``.  References inside the definition itself do not count, and
a class decorated with ``@register_rule`` counts as used.

* A top-level function or class counts as used through a ``Name``, an
  ``Attribute``, an imported name or, in ``perfbench/`` (whose tracer
  names the methods it wraps as strings), an identifier-shaped string
  constant.
* A method counts only through an attribute reference or a perfbench
  string: a bare name is a variable or a function, never the method.
* ``self.m``, ``cls.m`` and ``super().m`` count only for an ``m`` defined
  in the enclosing class's hierarchy (itself, its bases and its
  subclasses), and ``C.m``, ``C`` being a class of the scanned tree, only
  for an ``m`` in ``C``'s hierarchy.  Bases are matched by name.
* A method that shares its name with a method of ``dict``, ``list``,
  ``set``, ``str``, ``tuple``, ``numpy.ndarray``, ``numpy.random.Generator``
  or ``pathlib.Path`` counts only through such a qualified reference, or
  through an entry in :data:`REVIEWED_CALLERS` that names the ``src/``
  function calling it: a bare ``x.get(...)`` is far more often
  ``dict.get`` than the method, and a perfbench string such as the unit
  ``"count"`` names no method.

A name that two ``src/`` classes define is still matched by name when the
receiver is not qualified, so the scan errs towards keeping a definition,
never towards deleting a used one.

Code whose only callers are its own tests is deleted, unless the tests
use it to check other code: those oracles and observation helpers are
listed in :data:`ALLOWED` with the reason each stays.  A deleted method
does not move into the tests: a test that observes code through it keeps
it as such a helper, rather than reading the private state it returned
or re-creating it as a test helper.  A helper whose name another
``src/`` class shares (such as ``Job.edges``) needs no entry, since the
scan counts it as used.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USER_DIRS = ("src", "examples", "benchmarks", "perfbench")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


#: Method names a bare attribute reference more likely means on one of these types.
BUILTIN_METHODS: FrozenSet[str] = frozenset(
    name
    for kind in (dict, list, set, str, tuple, np.ndarray, np.random.Generator, Path)
    for name in dir(kind)
    if not _is_dunder(name)
)

#: Used methods whose names a builtin type shares, each with the ``src/``
#: function that calls it through an unqualified receiver, and why that
#: receiver is the method's class.
REVIEWED_CALLERS: Dict[str, Tuple[str, str]] = {
    "repro.analysis.core.ImportMap.resolve": (
        "repro.analysis.rules_hygiene.WallClockRule.check",
        "`imports` is the ImportMap that Rule.check receives for the file",
    ),
    "repro.bayes.network.DiscreteBayesianNetwork.parents": (
        "repro.bayes.learning.fit_cpds",
        "`network` is the DiscreteBayesianNetwork whose CPDs fit_cpds estimates",
    ),
    "repro.schedulers.ready.ReadyIndex.touch": (
        "repro.simulator.engine.SimulationEngine._activate_job",
        "`self._ready` is the engine's ReadyIndex",
    ),
    "repro.schedulers.ready.ReadyIndex.discard": (
        "repro.simulator.engine.SimulationEngine._deactivate_job",
        "`self._ready` is the engine's ReadyIndex",
    ),
    "repro.simulator.events.EventQueue.pop": (
        "repro.simulator.engine.SimulationEngine.completion_pass",
        "`queue` is the engine's EventQueue of completions",
    ),
    "repro.store.store.RunStore.get": (
        "repro.store.cli._resolve_id",
        "`store` is the RunStore the store CLI opened",
    ),
    "repro.workloads.arrivals.ArrivalProcess.take": (
        "repro.workloads.arrivals.open_loop_jobs",
        "`stream` is the ArrivalProcess an open-loop spec caps at max_jobs",
    ),
    "repro.utils.stats.OnlineStats.add": (
        "repro.simulator.metrics.SimulationMetrics.record_scheduler_invocation",
        "`self.scheduling_overhead` is an OnlineStats field of the metrics",
    ),
}

#: Definitions only the tests call, each kept for the check it serves.
ALLOWED: Dict[str, str] = {
    "repro.bayes.factor.DiscreteFactor.reduce": (
        "conditions on evidence in the factor-by-factor variable-elimination "
        "oracles of test_bayes_kernel and test_bayes_inference"
    ),
    "repro.bayes.factor.DiscreteFactor.marginalize": (
        "sums variables out in the factor-by-factor elimination and mutual-information "
        "oracles of test_bayes_kernel and the brute-force posteriors of test_bayes_inference"
    ),
    "repro.bayes.network.DiscreteBayesianNetwork.joint_distribution": (
        "the brute-force joint that the inference tests compare variable elimination against"
    ),
    "repro.bayes.cpd.TabularCPD.from_marginal": (
        "builds root CPDs of the hand-made networks the inference and information tests check"
    ),
    "repro.workloads.arrivals.superpose": (
        "the checked constructor of a merged stream, through which the arrival "
        "tests and the spec round-trip strategies build one"
    ),
    "repro.simulator.engine.SimulationEngine.current_time": (
        "observes the engine clock between steps in the stepping and snapshot tests"
    ),
    "repro.simulator.federation.FederatedSimulationEngine.current_time": (
        "observes the fleet clock between steps in the stepping tests"
    ),
    "repro.simulator.reference.ReferenceSimulationEngine.current_time": (
        "part of the seed engine kept whole as the oracle the golden and "
        "identity tests compare the fast engine against"
    ),
    "repro.dag.job.Job.parents": (
        "observes a stage's parents in the graph-oracle, dynamic-DAG and application "
        "structure tests"
    ),
    "repro.simulator.cluster.Cluster.pool": (
        "looks a pool up by name, through which the pool, placement, autoscaler, "
        "preemption and stepping tests fill, drain and observe one pool"
    ),
    "repro.schedulers.snapshot.CowSnapshotTracker.num_live_snapshots": (
        "observes that snapshots are released, which the COW tests assert"
    ),
    "repro.schedulers.base.SchedulingDecision.total_tasks": (
        "counts a decision's tasks in the scheduler tests"
    ),
    "repro.core.profiler.ApplicationProfile.mean_total_duration": (
        "the prior mean that the profiler tests compare an evidence-free estimate against"
    ),
    "repro.analysis.core.rule_codes": (
        "lists the registered rule codes, which the analysis tests check for completeness"
    ),
}


def _module_name(path: Path, package: Path) -> str:
    parts = path.relative_to(package.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _scope_name(path: Path, package: Path) -> str:
    """The dotted module of a package file, else the file's path."""
    return _module_name(path, package) if package in path.parents else str(path)


def _is_registered_rule(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "register_rule"
        for d in getattr(node, "decorator_list", ())
    )


class Definition(NamedTuple):
    qualified: str
    name: str
    path: Path
    first: int
    last: int
    #: The qualified class a method belongs to; None for a top-level definition.
    owner: Optional[str]


class Use(NamedTuple):
    path: Path
    line: int
    kind: str  # "name" (a Name or an import), "attribute" or "string"
    #: For ``self.m``, ``cls.m``, ``super().m`` and ``C.m``: the classes that may define ``m``.
    classes: Optional[FrozenSet[str]] = None


def definitions(package: Path = PACKAGE, registered: bool = False) -> Iterator[Definition]:
    """Every top-level function or class and non-dunder method in ``package``,
    without the classes registered through ``@register_rule`` unless ``registered``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(package.rglob("*.py")):
        module = _module_name(path, package)
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, kinds) or (_is_registered_rule(node) and not registered):
                continue
            qualified = f"{module}.{node.name}"
            yield Definition(qualified, node.name, path, node.lineno, node.end_lineno, None)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds) and not _is_dunder(item.name):
                        yield Definition(
                            f"{qualified}.{item.name}", item.name, path,
                            item.lineno, item.end_lineno, qualified,
                        )


def _closure(start: str, edges: Mapping[str, FrozenSet[str]]) -> FrozenSet[str]:
    seen = {start}
    todo = [start]
    while todo:
        for other in edges.get(todo.pop(), ()):
            if other not in seen:
                seen.add(other)
                todo.append(other)
    return frozenset(seen)


def _hierarchies(
    trees: Mapping[Path, ast.Module], package: Path
) -> Tuple[Dict[str, FrozenSet[str]], Dict[str, FrozenSet[str]]]:
    """Each class's hierarchy (itself, its bases and its subclasses), and
    each class name's classes."""
    bases: Dict[str, List[str]] = {}
    by_name: Dict[str, set] = {}
    for path, tree in trees.items():
        scope = _scope_name(path, package)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                key = f"{scope}.{node.name}"
                by_name.setdefault(node.name, set()).add(key)
                names = bases.setdefault(key, [])
                for base in node.bases:
                    base = base.value if isinstance(base, ast.Subscript) else base
                    if isinstance(base, (ast.Name, ast.Attribute)):
                        names.append(base.id if isinstance(base, ast.Name) else base.attr)
    parents = {
        key: frozenset(k for name in names for k in by_name.get(name, ()))
        for key, names in bases.items()
    }
    children: Dict[str, set] = {}
    for key, above in parents.items():
        for parent in above:
            children.setdefault(parent, set()).add(key)
    family = {key: _closure(key, parents) | _closure(key, children) for key in parents}
    return family, {name: frozenset(keys) for name, keys in by_name.items()}


def _receiver_classes(node, in_class, family, by_name) -> Optional[FrozenSet[str]]:
    """The classes a qualified ``receiver.attr`` may resolve in, else None."""
    value = node.value
    if in_class is not None:
        if isinstance(value, ast.Name) and value.id in ("self", "cls"):
            return family[in_class]
        if (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "super"
        ):
            return family[in_class]
    if isinstance(value, ast.Name) and value.id in by_name:
        return frozenset().union(*(family[key] for key in by_name[value.id]))
    return None


def references(root: Path = ROOT) -> Dict[str, List[Use]]:
    """Bare name -> every place under ``root``, outside the tests, that refers to it."""
    package = root / "src" / "repro"
    trees = {
        path: (directory, ast.parse(path.read_text(), str(path)))
        for directory in USER_DIRS
        for path in sorted((root / directory).rglob("*.py"))
    }
    family, by_name = _hierarchies({p: t for p, (_, t) in trees.items()}, package)
    found: Dict[str, List[Use]] = {}
    for path, (directory, tree) in trees.items():
        if path.name == "__init__.py" and package in path.parents:
            continue
        scope = _scope_name(path, package)
        stack: List[Tuple[ast.AST, Optional[str]]] = [(tree, None)]
        while stack:
            node, in_class = stack.pop()
            if isinstance(node, ast.ClassDef):
                in_class = f"{scope}.{node.name}"
            stack.extend((child, in_class) for child in ast.iter_child_nodes(node))
            if isinstance(node, ast.Name):
                uses = [(node.id, Use(path, node.lineno, "name"))]
            elif isinstance(node, ast.ImportFrom):
                uses = [(alias.name, Use(path, node.lineno, "name")) for alias in node.names]
            elif isinstance(node, ast.Attribute):
                classes = _receiver_classes(node, in_class, family, by_name)
                uses = [(node.attr, Use(path, node.lineno, "attribute", classes))]
            elif (
                directory == "perfbench" and isinstance(node, ast.Constant)
                and isinstance(node.value, str) and node.value.isidentifier()
            ):
                uses = [(node.value, Use(path, node.lineno, "string"))]
            else:
                continue
            for name, use in uses:
                found.setdefault(name, []).append(use)
    return found


def _counts(use: Use, definition: Definition) -> bool:
    if use.path == definition.path and definition.first <= use.line <= definition.last:
        return False
    if definition.owner is None:
        return True
    if use.kind == "name":
        return False
    if use.classes is not None:
        return definition.owner in use.classes
    return definition.name not in BUILTIN_METHODS


def _calls(caller: Optional[Definition], name: str, found: Mapping[str, List[Use]]) -> bool:
    """Whether ``caller`` refers to the attribute ``name``."""
    return caller is not None and any(
        use.kind == "attribute" and use.path == caller.path
        and caller.first <= use.line <= caller.last
        for use in found.get(name, ())
    )


def unused(
    root: Path = ROOT, reviewed: Optional[Mapping[str, Tuple[str, str]]] = None
) -> List[str]:
    """Definitions under ``root`` nothing outside the tests uses; ``reviewed``
    (default :data:`REVIEWED_CALLERS`) maps a method to the function calling it."""
    reviewed = REVIEWED_CALLERS if reviewed is None else reviewed
    package = root / "src" / "repro"
    found = references(root)
    spans = {d.qualified: d for d in definitions(package, registered=True)}
    return [
        d.qualified
        for d in definitions(package)
        if not any(_counts(use, d) for use in found.get(d.name, ()))
        and not (
            d.qualified in reviewed
            and _calls(spans.get(reviewed[d.qualified][0]), d.name, found)
        )
    ]


@pytest.fixture(scope="module")
def test_only():
    return set(unused())


@pytest.fixture(scope="module")
def unreviewed():
    return set(unused(reviewed={}))


def test_no_definition_is_reached_only_from_tests(test_only):
    stray = sorted(test_only - set(ALLOWED))
    assert not stray, (
        "only the tests reach these definitions; delete them, or list a test oracle "
        "in ALLOWED with its reason:\n  " + "\n  ".join(stray)
    )


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_entry_exists_is_still_test_only_and_says_why(name, test_only):
    assert name in {d[0] for d in definitions()}, f"{name} no longer exists; drop it from ALLOWED"
    assert name in test_only, f"{name} now has a caller outside the tests; drop it from ALLOWED"
    assert ALLOWED[name].strip()


@pytest.mark.parametrize("name", sorted(REVIEWED_CALLERS))
def test_reviewed_caller_is_needed_calls_the_method_and_says_why(name, test_only, unreviewed):
    caller, reason = REVIEWED_CALLERS[name]
    assert name.rsplit(".", 1)[1] in BUILTIN_METHODS, f"{name} shares no builtin name"
    assert name in unreviewed, f"{name} has a qualified caller now; drop it from REVIEWED_CALLERS"
    assert caller in {d.qualified for d in definitions(registered=True)}, f"{caller} is gone"
    assert name not in test_only, f"{caller} no longer refers to {name.rsplit('.', 1)[1]}"
    assert reason.strip()


def test_the_scan_sees_the_whole_package():
    """A scan that found nothing to check, or no uses, would pass vacuously."""
    names = {d[0] for d in definitions()}
    assert len(names) > 500
    assert {
        "repro.core.llmsched.LLMSchedScheduler",
        "repro.core.profiler.BayesianProfiler.uncertainty_reduction",
        "repro.simulator.latency.DecodingLatencyProfile.latency",
    } <= names
    found = references()
    assert {"LLMSchedScheduler", "uncertainty_reduction", "latency"} <= set(found)
    assert not any(ROOT / "tests" in use.path.parents for uses in found.values() for use in uses)


# --------------------------------------------------------------------------- #
# The scan's rules, on a small tree laid out like the repository
# --------------------------------------------------------------------------- #
MODULE = """
    def used_by_example():
        pass

    def reexported():
        pass

    def recursive(n):
        return recursive(n - 1) if n else 0

    def traced():
        pass

    @register_rule
    class Rule:
        pass

    class Engine:
        def step(self):
            pass

        def __len__(self):
            return 0
"""


def _write_tree(root: Path, files: Mapping[str, str]) -> Path:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


@pytest.fixture
def tree(tmp_path):
    return _write_tree(tmp_path, {
        "src/repro/__init__.py": "from repro.mod import reexported\n",
        "src/repro/mod.py": MODULE,
        "examples/demo.py": "from repro.mod import used_by_example\n",
        "benchmarks/bench.py": "",
        "perfbench/tracer.py": "WRAPPED = ['traced', 'not an identifier']\n",
        "tests/test_mod.py": "from repro.mod import Engine, recursive\nEngine().step()\n",
    })


def test_a_definition_only_tests_reach_is_flagged(tree):
    assert {"repro.mod.Engine", "repro.mod.Engine.step"} <= set(unused(tree))


def test_a_reference_inside_the_definition_does_not_count(tree):
    assert "repro.mod.recursive" in unused(tree)


def test_an_init_reexport_does_not_count_but_an_example_import_does(tree):
    stray = unused(tree)
    assert "repro.mod.reexported" in stray
    assert "repro.mod.used_by_example" not in stray


def test_a_registered_rule_a_dunder_and_a_perfbench_string_are_not_flagged(tree):
    assert sorted(unused(tree)) == [
        "repro.mod.Engine",
        "repro.mod.Engine.step",
        "repro.mod.recursive",
        "repro.mod.reexported",
    ]


METHODS = """
    class Base:
        def run(self):
            return self.hook() + self.helper()

        def helper(self):
            return 0

        def hook(self):
            return 0

    class Sub(Base):
        def hook(self):
            return 1

    class Store:
        def flush(self):
            pass

        def lookup(self):
            pass

        def fetch(self):
            pass

        def get(self, key):
            pass

        def keys(self):
            pass

        def pop(self):
            pass

        def copy(self):
            return Store.keys(self)

    class Other:
        def run(self):
            return self.flush()

    def drain(queue):
        return queue.pop()

    def unrelated(queue):
        return len(queue)
"""


@pytest.fixture
def methods_tree(tmp_path):
    return _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/mod.py": METHODS,
        "examples/demo.py": """
            from repro.mod import Other, Store, Sub, drain, unrelated
            lookup = {"a": 1}
            store = Store()
            store.fetch(), store.copy(), lookup.get("a"), Sub().run(), Other().run()
            drain([store]), unrelated([])
        """,
        "benchmarks/bench.py": "",
        "perfbench/tracer.py": "UNITS = ['count', 'get']\n",
    })


def test_a_bare_name_does_not_count_for_a_method(methods_tree):
    stray = set(unused(methods_tree))
    assert "repro.mod.Store.lookup" in stray
    assert "repro.mod.Store.fetch" not in stray


def test_self_counts_only_within_the_class_hierarchy(methods_tree):
    stray = set(unused(methods_tree))
    assert "repro.mod.Store.flush" in stray
    assert not {"repro.mod.Base.helper", "repro.mod.Sub.hook", "repro.mod.Base.hook"} & stray


def test_a_builtin_shared_name_counts_only_when_qualified_or_reviewed(methods_tree):
    stray = set(unused(methods_tree))
    assert {"repro.mod.Store.get", "repro.mod.Store.pop"} <= stray
    assert "repro.mod.Store.keys" not in stray  # Store.keys(self) is qualified
    reason = "`queue` holds Stores"
    assert "repro.mod.Store.pop" not in unused(
        methods_tree, reviewed={"repro.mod.Store.pop": ("repro.mod.drain", reason)}
    )
    assert "repro.mod.Store.pop" in unused(
        methods_tree, reviewed={"repro.mod.Store.pop": ("repro.mod.unrelated", reason)}
    )
