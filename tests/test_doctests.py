"""Run the doctest examples embedded in the public-API docstrings.

These examples double as documentation in README-style quickstarts, so
they must stay executable.
"""

import doctest

import pytest

import repro.broker.hierarchy
import repro.broker.selector
import repro.broker.server
import repro.core.mg1
import repro.core.service_time
import repro.rng
import repro.simulation.engine
import repro.simulation.process

MODULES = [
    repro.broker.hierarchy,
    repro.broker.selector,
    repro.broker.server,
    repro.core.mg1,
    repro.core.service_time,
    repro.rng,
    repro.simulation.engine,
    repro.simulation.process,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    # Ensure the module actually carries examples and they all pass.
    assert result.attempted > 0, f"{module.__name__} lost its doctest examples"
    assert result.failed == 0
