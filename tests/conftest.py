"""Shared simulated flights, run once per session."""

import pytest

from windest import sim


@pytest.fixture(scope="session")
def hover_clean():
    sc = sim.hover_scenario(noise=sim.NoiseSpec.none(), duration=6.0)
    return sim.run_scenario(sc), sc


@pytest.fixture(scope="session")
def circle3_clean():
    sc = sim.circular_scenario(noise=sim.NoiseSpec.none(), speeds=(3.0,), hold=10.0)
    return sim.run_scenario(sc), sc


@pytest.fixture(scope="session")
def circle_multi_clean():
    sc = sim.circular_scenario(noise=sim.NoiseSpec.none(), hold=6.0)
    return sim.run_scenario(sc), sc
