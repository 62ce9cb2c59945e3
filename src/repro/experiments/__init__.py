"""Experiment harness: regenerates every table and figure of the paper.

Each ``figN_*`` / ``tableN_*`` module exposes a ``run(...)`` function
returning plain dictionaries/lists and a ``main()`` entry point that prints
the same rows/series the paper reports.  The corresponding
``benchmarks/test_bench_*.py`` files call the same ``run`` functions at a
reduced scale so the whole harness stays runnable in CI; full paper-scale
parameters are available through each module's command line, e.g.::

    python -m repro.experiments.fig7_simulation --num-jobs 100 200 300 400

Each driver that simulates (Figs. 7–10, Table I through Fig. 8) runs its
cells as :func:`repro.api.run_grid` over one base spec, with ``processes=1``
so the cells run in order in this process: the scheduler timings Table I
reports measure nothing else, and one memo in :mod:`repro.api.prep` serves
every cell its priors, fitted profiler and cluster sizing.  Fig. 9c's
cluster is sized per workload type, so it runs one grid per type.  The API
also owns the shared settings (:class:`~repro.api.ExperimentSettings`).
"""
