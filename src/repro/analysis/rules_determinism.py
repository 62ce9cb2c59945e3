"""REP002/REP005: bit-identical reruns are a tested invariant — keep them.

The whole verification story of this repo (golden traces, COW-vs-deepcopy
lockstep properties, the benchmark regression gate) rests on simulations
being deterministic functions of their seeds.  Two classes of hazard break
that silently:

* **REP002** — randomness outside the seeded-RNG plumbing
  (:func:`repro.utils.rng.make_rng`).
  ``np.random.default_rng()`` with no seed, or any call through the
  module-level ``random`` / ``np.random`` global state, differs run to run
  and is invisible in a diff review.
* **REP005** — iteration order feeding scheduling decisions.  ``set``
  iteration order depends on insertion history and (for strings) the
  per-process hash seed; a ``for``/comprehension over a set — or over raw
  ``dict.keys()/.values()`` inside a decision-producing function — that
  feeds a :class:`~repro.schedulers.base.SchedulingDecision`, a placement
  or a router choice must go through ``sorted(...)``.

REP005 is scoped to the decision plane (``schedulers/``, the engine, the
federation, placement, autoscaler, pools) and infers set-typed values
structurally: set literals/comprehensions, ``set()``/``frozenset()`` calls,
set-operator expressions, and names/attributes assigned or annotated as
sets anywhere in the module.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    ImportMap,
    Module,
    Rule,
    annotation_mentions,
    dotted_name,
    register_rule,
)

__all__ = ["UnseededRandomnessRule", "IterationOrderRule"]


@register_rule
class UnseededRandomnessRule(Rule):
    """All randomness must flow through explicitly seeded generators."""

    code = "REP002"
    name = "no-unseeded-randomness"
    summary = (
        "np.random.default_rng() without a seed and module-level random./"
        "np.random.* calls are forbidden outside tests; use "
        "repro.utils.rng.make_rng"
    )

    #: Seeded-constructor names on numpy.random that are fine to call.
    _ALLOWED_NUMPY = {
        "default_rng",
        "SeedSequence",
        "Generator",
        "BitGenerator",
        "PCG64",
        "Philox",
        "MT19937",
        "SFC64",
    }

    def applies(self, module: Module) -> bool:
        return module.in_src_repro

    def check(self, module: Module) -> List[Finding]:
        imports = ImportMap(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func)
            if raw is None or raw.split(".")[0] not in imports.aliases:
                continue  # not a call through an imported module/name
            resolved = imports.resolve(raw) or ""
            head, _, _ = resolved.partition(".")
            if head == "random":
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"call to module-level `{resolved}` uses global RNG "
                        "state; draw from a seeded np.random.Generator "
                        "(repro.utils.rng.make_rng) instead",
                    )
                )
                continue
            if resolved.startswith("numpy.random."):
                tail = resolved.split(".")[-1]
                if tail == "default_rng" and not node.args and not node.keywords:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "np.random.default_rng() without a seed is "
                            "entropy-seeded and differs run to run; pass an "
                            "explicit seed (or use repro.utils.rng.make_rng)",
                        )
                    )
                elif tail not in self._ALLOWED_NUMPY:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"call to `{resolved}` uses numpy's global RNG "
                            "state; use a seeded np.random.Generator instead",
                        )
                    )
        return findings


# --------------------------------------------------------------------------- #
# REP005
# --------------------------------------------------------------------------- #
_SET_ANNOTATIONS = {"Set", "set", "FrozenSet", "frozenset", "AbstractSet", "MutableSet"}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
_DECISION_FUNCTIONS = {"schedule", "select_shard", "select_pool"}


@register_rule
class IterationOrderRule(Rule):
    """No unsorted set / raw dict-view iteration in the decision plane."""

    code = "REP005"
    name = "deterministic-iteration"
    summary = (
        "iteration over sets (or raw dict.keys()/.values() in decision "
        "functions) feeding scheduling/placement/routing must be wrapped in "
        "sorted(...)"
    )

    _SCOPE_DIRS = ("schedulers",)
    _SCOPE_FILES = (
        "simulator/engine.py",
        "simulator/federation.py",
        "simulator/placement.py",
        "simulator/autoscaler.py",
        "simulator/pool.py",
    )

    def applies(self, module: Module) -> bool:
        if not module.in_src_repro:
            return False
        if module.scope_endswith(*self._SCOPE_FILES):
            return True
        parts = module.scope_parts
        return any(d in parts for d in self._SCOPE_DIRS)

    # ---------------------------------------------------------------- #
    def check(self, module: Module) -> List[Finding]:
        set_ids = self._collect_set_identifiers(module.tree)
        findings: List[Finding] = []
        for fn_name, iter_expr in self._iteration_sites(module.tree):
            for hazard, why in self._hazards(iter_expr, set_ids, fn_name):
                findings.append(
                    self.finding(
                        module,
                        hazard,
                        f"iteration over {why} has no deterministic order "
                        "guarantee on the decision path; wrap it in "
                        "sorted(...)",
                    )
                )
        return findings

    # ---------------------------------------------------------------- #
    def _collect_set_identifiers(self, tree: ast.Module) -> Set[str]:
        """Names/attributes assigned or annotated as sets in this module."""
        ids: Set[str] = set()
        for _ in range(2):  # one extra pass so `a = b | c` chains propagate
            for node in ast.walk(tree):
                if isinstance(node, ast.AnnAssign):
                    if annotation_mentions(node.annotation, _SET_ANNOTATIONS):
                        name = self._target_identifier(node.target)
                        if name:
                            ids.add(name)
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    name = self._target_identifier(node.targets[0])
                    if name and self._is_set_expr(node.value, ids):
                        ids.add(name)
                elif isinstance(node, ast.arg):
                    if annotation_mentions(node.annotation, _SET_ANNOTATIONS):
                        ids.add(node.arg)
        return ids

    @staticmethod
    def _target_identifier(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None

    def _is_set_expr(self, value: ast.AST, set_ids: Set[str]) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name in {"set", "frozenset"}:
                return True
            if name is not None and name.split(".")[-1] in {"union", "intersection", "difference"}:
                base = dotted_name(getattr(value.func, "value", None))
                return base is not None and base.split(".")[-1] in set_ids
            return False
        if isinstance(value, ast.BinOp) and isinstance(value.op, _SET_OPS):
            return self._is_set_expr(value.left, set_ids) or self._is_set_expr(
                value.right, set_ids
            )
        if isinstance(value, ast.Name):
            return value.id in set_ids
        if isinstance(value, ast.Attribute):
            return value.attr in set_ids
        return False

    # ---------------------------------------------------------------- #
    def _iteration_sites(self, tree: ast.Module) -> Iterable[Tuple[str, ast.AST]]:
        """(enclosing function name, iterable expression) pairs."""

        def visit(node: ast.AST, fn_name: str):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from visit(child, child.name)
                    continue
                if isinstance(child, (ast.For, ast.AsyncFor)):
                    yield fn_name, child.iter
                elif isinstance(
                    child, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
                ):
                    for gen in child.generators:
                        yield fn_name, gen.iter
                yield from visit(child, fn_name)

        yield from visit(tree, "")

    def _hazards(
        self, iter_expr: ast.AST, set_ids: Set[str], fn_name: str
    ) -> Iterable[Tuple[ast.AST, str]]:
        # Unwrap list()/tuple() one level: materializing a set keeps its order.
        expr = iter_expr
        if (
            isinstance(expr, ast.Call)
            and dotted_name(expr.func) in {"list", "tuple"}
            and len(expr.args) == 1
        ):
            expr = expr.args[0]
        if self._is_set_expr(expr, set_ids):
            yield expr, f"the set-typed expression `{ast.unparse(expr)}`"
            return
        if (
            fn_name in _DECISION_FUNCTIONS
            and isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in {"keys", "values"}
            and not expr.args
        ):
            yield expr, (
                f"the raw dict view `{ast.unparse(expr)}` inside decision "
                f"function `{fn_name}`"
            )
