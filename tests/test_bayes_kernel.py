"""The compiled inference kernel against the factor-by-factor formulas it replaced.

A network compiles once (:meth:`DiscreteBayesianNetwork.compiled`), and
variable elimination, conditional mutual information and the profiler's
forward pass read that state.  The formulas from before the compiled
kernel are kept below as the oracle: each rebuilds every CPD factor, and
conditions, multiplies, sums and normalises through checked
:class:`DiscreteFactor` objects.  The kernel must match them bit for bit:

* on hypothesis-drawn networks, forests with at most one parent per node
  (what the profiler learns) and multi-parent DAGs, for random query sets
  and evidence;
* on the six fitted default profiles, single-parent and two-parent, for
  the evidence of randomly advanced jobs.

It must also see every edit made after a query, and its CPD arrays must
not be writable.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes.cpd import TabularCPD
from repro.bayes.factor import DiscreteFactor
from repro.bayes.inference import VariableElimination
from repro.bayes.information import conditional_mutual_information
from repro.bayes.learning import StructureLearningConfig
from repro.bayes.network import DiscreteBayesianNetwork
from repro.core import profiler as profiler_module
from repro.core.profiler import MAX_CORRELATED_TARGETS, BayesianProfiler, RemainingEstimate
from repro.workloads.mixtures import default_applications
from tests.test_ready_index import partial_jobs


# --------------------------------------------------------------------------- #
# The formulas before the compiled kernel: the oracle
# --------------------------------------------------------------------------- #
def old_normalize(factor):
    total = float(factor.values.sum())
    if total <= 0.0:
        uniform = np.full(factor.values.shape, 1.0 / float(factor.values.size))
        return DiscreteFactor(factor.variables, factor.cardinalities, uniform)
    return DiscreteFactor(factor.variables, factor.cardinalities, factor.values / total)


def old_elimination_order(variables, factors):
    remaining = list(variables)
    neighbors = {v: set() for v in remaining}
    cliques = [set(f.variables) for f in factors]
    order = []
    while remaining:
        for var in remaining:
            neighbors[var] = set()
            for clique in cliques:
                if var in clique:
                    neighbors[var] |= clique - {var}
        best = min(remaining, key=lambda v: (len(neighbors[v]), v))
        order.append(best)
        remaining.remove(best)
        merged = neighbors[best]
        cliques = [c for c in cliques if best not in c]
        cliques.append(set(merged))
    return order


def old_eliminate(variable, factors):
    involved = [f for f in factors if variable in f.variables]
    untouched = [f for f in factors if variable not in f.variables]
    if not involved:
        return untouched
    product = involved[0]
    for factor in involved[1:]:
        product = product.product(factor)
    return untouched + [product.marginalize([variable])]


def old_query(network, variables, evidence):
    evidence = dict(evidence)
    query_vars = [v for v in variables if v not in evidence]
    factors = [network.get_cpd(node).to_factor().reduce(evidence) for node in network.nodes]
    factors = [f for f in factors if f.variables or float(f.values.sum()) != 1.0]
    to_eliminate = [n for n in network.nodes if n not in query_vars and n not in evidence]
    for var in old_elimination_order(to_eliminate, factors):
        factors = old_eliminate(var, factors)
    result = DiscreteFactor.identity()
    for factor in factors:
        result = result.product(factor)
    extra = [v for v in result.variables if v not in query_vars]
    if extra:
        result = result.marginalize(extra)
    if result.variables != query_vars:
        perm = [result.variables.index(v) for v in query_vars]
        cards = {v: result.cardinalities[v] for v in query_vars}
        result = DiscreteFactor(query_vars, cards, result.values.transpose(perm))
    return old_normalize(result)


def old_entropy(probabilities):
    probs = np.asarray(list(probabilities), dtype=float)
    if probs.size == 0:
        return 0.0
    total = probs.sum()
    if total <= 0:
        return 0.0
    probs = probs / total
    nonzero = probs[probs > 1e-12]
    return float(-(nonzero * np.log2(nonzero)).sum())


def old_mutual_information(joint, left, right):
    normalized = old_normalize(joint)
    h_joint = old_entropy(normalized.values.ravel())
    h_left = old_entropy(old_normalize(normalized.marginalize(right)).values.ravel())
    h_right = old_entropy(old_normalize(normalized.marginalize(left)).values.ravel())
    return max(0.0, float(h_left + h_right - h_joint))


def old_cmi(network, targets, source, evidence):
    targets = [t for t in targets if t != source and t not in evidence]
    if not targets or source in evidence:
        return 0.0
    joint = old_query(network, list(targets) + [source], evidence)
    return old_mutual_information(joint, targets, [source])


def old_posterior_marginals(network, evidence):
    marginals = {}
    for variable in network.topological_order():
        card = network.cardinality(variable)
        if variable in evidence:
            point = np.zeros(card)
            point[int(evidence[variable])] = 1.0
            marginals[variable] = point
            continue
        cpd = network.get_cpd(variable)
        if not cpd.parents:
            marginals[variable] = cpd.table[:, 0].copy()
            continue
        distribution = np.zeros(card)
        parent_cards = [cpd.parent_cardinalities[p] for p in cpd.parents]
        last_first = list(zip(reversed(cpd.parents), reversed(parent_cards), strict=True))
        for column_index in range(int(np.prod(parent_cards))):
            weight = 1.0
            remainder = column_index
            for parent, parent_card in last_first:
                state = remainder % parent_card
                remainder //= parent_card
                weight *= float(marginals[parent][state])
            if weight > 0:
                distribution += weight * cpd.table[:, column_index]
        total = distribution.sum()
        marginals[variable] = distribution / total if total > 0 else np.full(card, 1.0 / card)
    return marginals


def old_remaining_estimate(profiler, job, use_posterior):
    profile = profiler.profile_for(job.application)
    evidence = profiler.evidence_for(job)
    marginals = old_posterior_marginals(profile.network, evidence) if use_posterior else None
    complete = {}
    for stage in job.stages.values():
        complete.setdefault(stage.profile_key, stage.is_complete)
    regular = llm = mean_total = variance_total = 0.0
    for variable in profile.variables:
        if variable in evidence and complete.get(variable, True):
            continue
        representatives = np.asarray(profile.specs[variable].representatives, dtype=float)
        if marginals is not None:
            distribution = np.asarray(marginals[variable], dtype=float)
        else:
            distribution = np.full(representatives.size, 1.0 / representatives.size)
        mean = float(np.dot(distribution, representatives))
        second_moment = float(np.dot(distribution, representatives**2))
        expected = mean if use_posterior else profile.mean_durations[variable]
        if variable in profile.llm_variables:
            llm += expected
        else:
            regular += expected
        mean_total += mean
        variance_total += max(0.0, second_moment - mean**2)
    spread = math.sqrt(variance_total)
    return RemainingEstimate(
        evidence, regular, llm, (max(0.0, mean_total - spread), mean_total + spread)
    )


def old_uncertainty_reduction(profiler, job, key):
    profile = profiler.profile_for(job.application)
    evidence = profiler.evidence_for(job)
    reduction = 0.0
    if key in profile.specs and key not in evidence:
        correlated = profile.network.correlated_nodes(key)
        targets = [
            v for v in profile.variables if v in correlated and v not in evidence and v != key
        ]
        if targets:
            targets.sort(key=lambda v: profile.variable_range(v), reverse=True)
            targets = targets[:MAX_CORRELATED_TARGETS]
            mi = old_cmi(profile.network, targets, key, evidence)
            reduction += mi * sum(profile.variable_range(v) for v in targets)
    for preceding, entropy, duration_range in profile.dynamic_info.values():
        if key == preceding and preceding not in evidence:
            reduction += entropy * duration_range
    return reduction


# --------------------------------------------------------------------------- #
# Hypothesis networks
# --------------------------------------------------------------------------- #
def random_table(rng, card, columns):
    """Column-stochastic table; some entries are zero, so evidence can be impossible."""
    table = rng.random((card, columns)) * (rng.random((card, columns)) > 0.25)
    sums = table.sum(axis=0)
    table[:, sums == 0] = 1.0
    return table / table.sum(axis=0)


@st.composite
def networks(draw, max_parents):
    """A network with shuffled names, insertion, edge and CPD-parent orders."""
    size = draw(st.integers(1, 6))
    names = draw(st.permutations([f"v{i}" for i in range(size)]))
    cards = [draw(st.integers(1, 4)) for _ in range(size)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parents = {}
    for i in range(size):
        earlier = list(rng.permutation(i))[: draw(st.integers(0, min(i, max_parents)))]
        parents[names[i]] = [names[int(j)] for j in earlier]
    network = DiscreteBayesianNetwork()
    for i in draw(st.permutations(range(size))):
        network.add_node(names[i], cards[i])
    edges = [(p, child) for child, ps in parents.items() for p in ps]
    for parent, child in draw(st.permutations(edges)):
        network.add_edge(parent, child)
    card_of = dict(zip(names, cards, strict=True))
    for child, ps in parents.items():
        columns = int(np.prod([card_of[p] for p in ps])) if ps else 1
        table = random_table(rng, card_of[child], columns)
        network.set_cpd(TabularCPD(child, card_of[child], table, ps, {p: card_of[p] for p in ps}))
    return network


@st.composite
def queries(draw, max_parents):
    """A network, a non-empty query set and evidence (possibly on query variables)."""
    network = draw(networks(max_parents))
    nodes = network.nodes
    variables = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True))
    observed = draw(st.lists(st.sampled_from(nodes), max_size=len(nodes) - 1, unique=True))
    evidence = {v: draw(st.integers(0, network.cardinality(v) - 1)) for v in observed}
    if all(v in evidence for v in variables):
        evidence.pop(variables[0])
    return network, variables, evidence


SHAPES = pytest.mark.parametrize("max_parents", [1, 3], ids=["forest", "dag"])


class TestHypothesisNetworks:
    @SHAPES
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_query_matches_the_factor_formulas(self, max_parents, data):
        network, variables, evidence = data.draw(queries(max_parents))
        engine = VariableElimination(network)
        for _ in range(2):  # cold, then from the compiled state and its order memo
            result = engine.query(variables, evidence)
            expected = old_query(network, variables, evidence)
            assert result.variables == expected.variables
            assert np.array_equal(result.values, expected.values)

    @SHAPES
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_conditional_mutual_information_matches(self, max_parents, data):
        network, variables, evidence = data.draw(queries(max_parents))
        source = data.draw(st.sampled_from(network.nodes))
        for _ in range(2):
            value = conditional_mutual_information(network, variables, source, evidence)
            assert value == old_cmi(network, variables, source, evidence)

    def test_out_of_range_evidence_is_rejected(self):
        network = DiscreteBayesianNetwork()
        network.add_node("x", 2)
        network.add_node("y", 3)
        network.add_edge("x", "y")
        network.set_cpd(TabularCPD.from_marginal("x", [0.5, 0.5]))
        network.set_cpd(TabularCPD("y", 3, np.full((3, 2), 1 / 3), ["x"], {"x": 2}))
        for state in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                VariableElimination(network).query(["y"], {"x": state})


# --------------------------------------------------------------------------- #
# The six fitted default profiles
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=[1, 2], ids=["one_parent", "two_parents"])
def profiler(request):
    config = StructureLearningConfig(correlation_threshold=0.3, max_parents=request.param)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(profiler_module, "STRUCTURE_CONFIG", config)
        return BayesianProfiler().fit(default_applications().values(), n_profile_jobs=60, seed=5)


class TestFittedProfiles:
    @given(seed=st.integers(0, 2**16), steps=st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_profiler_answers_match_the_factor_formulas(self, profiler, seed, steps):
        for job in partial_jobs(seed, 6, steps):
            profile = profiler.profile_for(job.application)
            evidence = profiler.evidence_for(job)
            marginals = profiler.posterior_marginals(job.application, evidence)
            expected = old_posterior_marginals(profile.network, evidence)
            assert list(marginals) == list(expected)
            for variable, distribution in expected.items():
                assert np.array_equal(marginals[variable], distribution), variable
            for use_posterior in (True, False):
                assert profiler.remaining_estimate(job, use_posterior) == old_remaining_estimate(
                    profiler, job, use_posterior
                )
            for key in {stage.profile_key for stage in job.stages.values()}:
                assert profiler.uncertainty_reduction(job, key) == old_uncertainty_reduction(
                    profiler, job, key
                ), key


# --------------------------------------------------------------------------- #
# Edits after a query, and read-only arrays
# --------------------------------------------------------------------------- #
def chain(y_table, z_edge=False):
    """x -> y, and z a root or (``z_edge``) a child of y."""
    network = DiscreteBayesianNetwork()
    for name in ("z", "x", "y"):
        network.add_node(name, 2)
    network.add_edge("x", "y")
    network.set_cpd(TabularCPD.from_marginal("x", [0.3, 0.7]))
    network.set_cpd(TabularCPD("y", 2, y_table, ["x"], {"x": 2}))
    if z_edge:
        network.add_edge("y", "z")
        network.set_cpd(TabularCPD("z", 2, [[0.9, 0.2], [0.1, 0.8]], ["y"], {"y": 2}))
    else:
        network.set_cpd(TabularCPD.from_marginal("z", [0.5, 0.5]))
    return network


FIRST = np.array([[0.9, 0.4], [0.1, 0.6]])
SECOND = np.array([[0.2, 0.5], [0.8, 0.5]])


def answers(network):
    engine = VariableElimination(network)
    return [
        engine.query(["x"], {"z": 1}).values,
        engine.query(["z", "x"], {"y": 0}).values,
        np.array([conditional_mutual_information(network, ["z"], "x")]),
    ]


def assert_answers_equal(network, fresh):
    for got, expected in zip(answers(network), answers(fresh), strict=True):
        assert np.array_equal(got, expected)


class TestEditsAfterAQuery:
    def test_set_cpd(self):
        network = chain(FIRST, z_edge=True)
        before = answers(network)
        network.set_cpd(TabularCPD("y", 2, SECOND, ["x"], {"x": 2}))
        assert_answers_equal(network, chain(SECOND, z_edge=True))
        assert not np.array_equal(answers(network)[0], before[0])

    def test_add_edge(self):
        network = chain(FIRST)
        before = answers(network)
        compiled = network.compiled()
        network.add_edge("y", "z")
        assert network.compiled() is not compiled
        assert network.compiled().order == ["x", "y", "z"] != compiled.order
        network.set_cpd(TabularCPD("z", 2, [[0.9, 0.2], [0.1, 0.8]], ["y"], {"y": 2}))
        assert_answers_equal(network, chain(FIRST, z_edge=True))
        assert not np.array_equal(answers(network)[0], before[0])

    def test_add_node(self):
        network = chain(FIRST)
        answers(network)
        network.add_node("w", 3)
        with pytest.raises(ValueError, match="without CPDs"):
            network.compiled()
        network.set_cpd(TabularCPD.from_marginal("w", [0.2, 0.3, 0.5]))
        assert [f.variables for f in network.factors()][-1] == ["w"]
        assert network.compiled().order == ["z", "x", "w", "y"]

    def test_compiled_arrays_are_read_only(self):
        network = chain(FIRST, z_edge=True)
        compiled = network.compiled()
        arrays = [f.values for f in network.factors()]
        arrays += [values for _, values in compiled.tables]
        arrays += [column for _, columns in compiled.columns.values() for column, _ in columns]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.5
        assert np.array_equal(network.factors()[2].values, network.get_cpd("y").table)
