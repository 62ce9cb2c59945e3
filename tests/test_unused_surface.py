"""No ``src/`` definition is reachable only from the tests.

An AST scan of ``src/repro/`` lists every top-level function or class and
every non-dunder method.  Each must be referenced, by name, somewhere in
``src/`` (outside ``__init__.py`` re-exports), ``examples/``,
``benchmarks/`` or ``perfbench/``.  A reference is a ``Name``, an
``Attribute``, an imported name or, in ``perfbench/`` (whose tracer names
the methods it wraps as strings), an identifier-shaped string constant.
References inside the definition itself do not count, and a class
decorated with ``@register_rule`` counts as used.  Matching is by bare
name, so the scan errs towards keeping a definition, never towards
deleting a used one.

Code whose only callers are its own tests is deleted, unless the tests
use it to check other code: those oracles and observation helpers are
listed in :data:`ALLOWED` with the reason each stays.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USER_DIRS = ("src", "examples", "benchmarks", "perfbench")

#: Definitions only the tests call, each kept for the check it serves.
ALLOWED: Dict[str, str] = {
    "repro.bayes.factor.DiscreteFactor.reduce": (
        "conditions on evidence in the factor-by-factor variable-elimination "
        "oracles of test_bayes_kernel and test_bayes_inference"
    ),
    "repro.bayes.network.DiscreteBayesianNetwork.joint_distribution": (
        "the brute-force joint that the inference tests compare variable elimination against"
    ),
    "repro.bayes.cpd.TabularCPD.from_marginal": (
        "builds root CPDs of the hand-made networks the inference and information tests check"
    ),
    "repro.store.store.RunStore.rebuild_index": (
        "rebuilds the index from the record files alone, the oracle for the kept index"
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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_registered_rule(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "register_rule"
        for d in getattr(node, "decorator_list", ())
    )


Definition = Tuple[str, str, Path, int, int]  # qualified name, bare name, file, first, last line


def definitions(package: Path = PACKAGE) -> Iterator[Definition]:
    """Every top-level function or class and non-dunder method in ``package``,
    except the classes registered through ``@register_rule``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(package.rglob("*.py")):
        module = _module_name(path, package)
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, kinds) or _is_registered_rule(node):
                continue
            qualified = f"{module}.{node.name}"
            yield qualified, node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds) and not _is_dunder(item.name):
                        yield (
                            f"{qualified}.{item.name}", item.name, path,
                            item.lineno, item.end_lineno,
                        )


def references(root: Path = ROOT) -> Dict[str, List[Tuple[Path, int]]]:
    """Bare name -> every place under ``root``, outside the tests, that refers to it."""
    package = root / "src" / "repro"
    found: Dict[str, List[Tuple[Path, int]]] = {}
    for directory in USER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path.name == "__init__.py" and package in path.parents:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                elif (
                    directory == "perfbench" and isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and node.value.isidentifier()
                ):
                    names = [node.value]
                else:
                    continue
                for name in names:
                    found.setdefault(name, []).append((path, node.lineno))
    return found


def _used(definition: Definition, found: Dict[str, List[Tuple[Path, int]]]) -> bool:
    _, name, path, first, last = definition
    return any(
        not (where == path and first <= line <= last) for where, line in found.get(name, ())
    )


def unused(root: Path = ROOT) -> List[str]:
    found = references(root)
    return [d[0] for d in definitions(root / "src" / "repro") if not _used(d, found)]


@pytest.fixture(scope="module")
def test_only():
    return set(unused())


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
    assert not any(ROOT / "tests" in path.parents for uses in found.values() for path, _ in uses)


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


@pytest.fixture
def tree(tmp_path):
    files = {
        "src/repro/__init__.py": "from repro.mod import reexported\n",
        "src/repro/mod.py": MODULE,
        "examples/demo.py": "from repro.mod import used_by_example\n",
        "benchmarks/bench.py": "",
        "perfbench/tracer.py": "WRAPPED = ['traced', 'not an identifier']\n",
        "tests/test_mod.py": "from repro.mod import Engine, recursive\nEngine().step()\n",
    }
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


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
