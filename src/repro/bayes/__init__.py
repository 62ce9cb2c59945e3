"""Discrete Bayesian-network substrate.

The paper profiles compound LLM applications with Bayesian networks built in
pyAgrum.  This subpackage provides the subset of functionality LLMSched needs,
implemented from scratch on top of numpy:

* :class:`~repro.bayes.factor.DiscreteFactor` — multi-dimensional probability
  tables with product / marginalise / reduce / normalise operations.
* :class:`~repro.bayes.cpd.TabularCPD` — conditional probability distributions.
* :class:`~repro.bayes.network.DiscreteBayesianNetwork` — a DAG of CPDs.
* :class:`~repro.bayes.inference.VariableElimination` — exact posterior and
  joint queries with evidence.
* :mod:`~repro.bayes.learning` — maximum-likelihood parameter learning with
  Laplace smoothing and correlation-guided structure selection.
* :mod:`~repro.bayes.discretize` — frequency-based duration discretisation.
* :mod:`~repro.bayes.information` — entropy and (conditional) mutual
  information on factors.
"""

from repro.bayes.cpd import TabularCPD
from repro.bayes.discretize import Discretizer, DiscretizationSpec
from repro.bayes.factor import DiscreteFactor
from repro.bayes.inference import VariableElimination
from repro.bayes.information import (
    conditional_mutual_information,
    entropy_of_distribution,
    mutual_information,
)
from repro.bayes.learning import (
    fit_cpds,
    learn_structure_from_correlations,
    StructureLearningConfig,
)
from repro.bayes.network import DiscreteBayesianNetwork

__all__ = [
    "DiscreteFactor",
    "TabularCPD",
    "DiscreteBayesianNetwork",
    "VariableElimination",
    "Discretizer",
    "DiscretizationSpec",
    "entropy_of_distribution",
    "mutual_information",
    "conditional_mutual_information",
    "fit_cpds",
    "learn_structure_from_correlations",
    "StructureLearningConfig",
]
