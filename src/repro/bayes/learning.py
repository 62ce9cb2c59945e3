"""Parameter and structure learning for the profiler's Bayesian networks.

Structure: the profiler knows each application's stage DAG, and the paper's
heatmaps (Fig. 5) show that duration correlations largely follow the data-flow
edges.  We therefore learn structure by scoring candidate edges with the
absolute Pearson correlation of the training durations, restricted to pairs
ordered by the stage topological order (which keeps the graph acyclic), and
keeping edges above a threshold with a per-node parent cap for tractability.

Parameters: maximum-likelihood estimation of each CPD with Laplace smoothing,
so that unseen parent configurations fall back towards uniform instead of
producing zero-probability states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bayes.cpd import TabularCPD
from repro.bayes.network import DiscreteBayesianNetwork
from repro.utils.stats import pearson_correlation

__all__ = ["StructureLearningConfig", "learn_structure_from_correlations", "fit_cpds"]


@dataclass(frozen=True)
class StructureLearningConfig:
    """Knobs controlling correlation-guided structure selection."""

    correlation_threshold: float = 0.3
    max_parents: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.correlation_threshold <= 1.0:
            raise ValueError("correlation_threshold must be within [0, 1]")
        if self.max_parents < 0:
            raise ValueError("max_parents must be >= 0")


def learn_structure_from_correlations(
    samples: Mapping[str, Sequence[float]],
    variable_order: Sequence[str],
    config: Optional[StructureLearningConfig] = None,
) -> List[Tuple[str, str]]:
    """Select edges (parent, child) from raw (continuous) duration samples.

    ``variable_order`` fixes edge direction: an edge may only point from an
    earlier variable to a later one, so the result is guaranteed acyclic.
    For every child, the strongest-correlated earlier variables above the
    threshold are chosen, capped at ``max_parents``.
    """
    config = config or StructureLearningConfig()
    order = list(variable_order)
    unknown = [v for v in order if v not in samples]
    if unknown:
        raise ValueError(f"variables without samples: {unknown}")

    edges: List[Tuple[str, str]] = []
    for child_index, child in enumerate(order):
        candidates: List[Tuple[float, str]] = []
        for parent in order[:child_index]:
            corr = abs(pearson_correlation(samples[parent], samples[child]))
            if corr >= config.correlation_threshold:
                candidates.append((corr, parent))
        candidates.sort(reverse=True)
        for _, parent in candidates[: config.max_parents]:
            edges.append((parent, child))
    return edges


def fit_cpds(
    network: DiscreteBayesianNetwork,
    discrete_samples: Mapping[str, Sequence[int]],
    laplace_alpha: float = 1.0,
    smoothing_prior: str = "uniform",
) -> None:
    """Fit every CPD of ``network`` by MLE with smoothing, in place.

    ``discrete_samples`` maps variable name to its per-sample discrete state;
    every variable of the network must be present and all sequences must have
    equal length.

    ``smoothing_prior`` selects the Dirichlet prior added to every column:
    ``"uniform"`` is classic Laplace smoothing, ``"marginal"`` backs off to
    the child's empirical marginal distribution — parent configurations that
    never occur in the training data then predict the marginal instead of a
    uniform spread over all duration intervals, which keeps posterior
    duration expectations unbiased (important for the profiler).
    """
    if laplace_alpha < 0:
        raise ValueError("laplace_alpha must be >= 0")
    if smoothing_prior not in ("uniform", "marginal"):
        raise ValueError(f"unknown smoothing_prior {smoothing_prior!r}")
    nodes = network.nodes
    missing = [n for n in nodes if n not in discrete_samples]
    if missing:
        raise ValueError(f"missing samples for variables: {missing}")
    lengths = {len(discrete_samples[n]) for n in nodes}
    if len(lengths) != 1:
        raise ValueError(f"sample sequences have inconsistent lengths: {sorted(lengths)}")
    n_samples = lengths.pop()
    if n_samples == 0:
        raise ValueError("cannot fit CPDs with zero samples")

    columns = {n: np.asarray(discrete_samples[n], dtype=int) for n in nodes}
    for node in nodes:
        card = network.cardinality(node)
        states = columns[node]
        if states.min() < 0 or states.max() >= card:
            raise ValueError(
                f"samples for {node!r} contain states outside [0, {card - 1}]"
            )

    for node in nodes:
        parents = network.parents(node)
        card = network.cardinality(node)
        parent_cards = {p: network.cardinality(p) for p in parents}
        n_cols = int(np.prod([parent_cards[p] for p in parents])) if parents else 1
        if smoothing_prior == "marginal":
            marginal_counts = np.bincount(columns[node], minlength=card).astype(float)
            prior = marginal_counts / max(1.0, marginal_counts.sum())
            prior = np.clip(prior, 1e-6, None)
            prior = prior / prior.sum()
        else:
            prior = np.full(card, 1.0 / card)
        counts = np.tile((laplace_alpha * card * prior).reshape(-1, 1), (1, n_cols))

        if parents:
            # Column index in row-major order of `parents` (last parent fastest).
            col_index = np.zeros(n_samples, dtype=int)
            for parent in parents:
                col_index = col_index * parent_cards[parent] + columns[parent]
            np.add.at(counts, (columns[node], col_index), 1.0)
        else:
            np.add.at(counts, (columns[node], np.zeros(n_samples, dtype=int)), 1.0)

        column_sums = counts.sum(axis=0, keepdims=True)
        # A column can only be all-zero when laplace_alpha == 0 and the parent
        # configuration never appeared; fall back to the prior there.
        zero_columns = column_sums[0] <= 0
        if np.any(zero_columns):
            counts[:, zero_columns] = np.clip(prior, 1e-6, None).reshape(-1, 1)
            column_sums = counts.sum(axis=0, keepdims=True)
        table = counts / column_sums
        cpd = TabularCPD(node, card, table, parents, parent_cards)
        network.set_cpd(cpd)


def build_network_from_samples(
    continuous_samples: Mapping[str, Sequence[float]],
    discrete_samples: Mapping[str, Sequence[int]],
    cardinalities: Mapping[str, int],
    variable_order: Sequence[str],
    config: Optional[StructureLearningConfig] = None,
    laplace_alpha: float = 1.0,
    smoothing_prior: str = "uniform",
) -> DiscreteBayesianNetwork:
    """Convenience wrapper: learn structure, then fit parameters.

    This is the one-call entry point used by the profiler: it takes the raw
    duration traces (for correlation-based edge selection), their discretised
    counterparts (for CPD fitting), and each variable's cardinality.
    """
    network = DiscreteBayesianNetwork()
    for variable in variable_order:
        network.add_node(variable, cardinalities[variable])
    for parent, child in learn_structure_from_correlations(
        continuous_samples, variable_order, config
    ):
        network.add_edge(parent, child)
    fit_cpds(network, discrete_samples, laplace_alpha=laplace_alpha, smoothing_prior=smoothing_prior)
    return network
