"""Reproduction experiments: one module per paper table/figure/claim set.

Registry::

    from repro.experiments.runner import EXPERIMENTS
    result = EXPERIMENTS["table2"]()
    print(result.rendered)
    print(result.summary())
"""
