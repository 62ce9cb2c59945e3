"""Experiment harness: regenerates every table and figure of the paper.

Each ``figN_*`` / ``tableN_*`` module exposes a ``run(...)`` function
returning plain dictionaries/lists and a ``main()`` entry point that prints
the same rows/series the paper reports.  The corresponding
``benchmarks/test_bench_*.py`` files call the same ``run`` functions at a
reduced scale so the whole harness stays runnable in CI; full paper-scale
parameters are available through each module's command line, e.g.::

    python -m repro.experiments.fig7_simulation --num-jobs 100 200 300 400

The figure drivers run through the declarative API (:mod:`repro.api`),
which also owns the shared settings and offline preparation
(:class:`~repro.api.ExperimentSettings`, ``build_priors`` /
``build_profiler``, cluster sizing).
"""
