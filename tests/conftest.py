from dataclasses import replace

import pytest

import cdss_sim as cs


@pytest.fixture(scope="session")
def default_cfg():
    return cs.default_scenario()


def fast_scenario():
    """3 s run with 1 s warmup; keeps engine unit tests quick."""
    cfg = cs.default_scenario()
    return replace(cfg, sim=replace(cfg.sim, total_s=3.0, warmup_s=1.0))


@pytest.fixture(scope="session")
def fast_cfg():
    return fast_scenario()


@pytest.fixture(scope="session")
def run_cache(default_cfg):
    """Memoized full-length runs shared by engine and acceptance tests."""
    from cdss_sim.engine import RunSpec, run_simulation

    cache = {}

    def get(case_id: int, seed: int):
        key = (case_id, seed)
        if key not in cache:
            cache[key] = run_simulation(RunSpec(default_cfg, case_id, seed))
        return cache[key]

    return get
