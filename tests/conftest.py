from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract: tests own it)."""
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # deterministic observed row order for seeded shuffles / ordered sinks
    ctx.execution_options.preserve_order = True
    yield
    ray.shutdown()


# the modules that bind ``cogroup`` at import time
_COGROUP_USERS = (
    "edge_deid_studio_ray.pipelines.queries",
    "edge_deid_studio_ray.pipelines.webtext",
    "edge_deid_studio_ray.functions.dedup",
    "edge_deid_studio_ray.functions.simsearch",
    "edge_deid_studio_ray.functions.corpusops",
)


@pytest.fixture
def split_cogroups(monkeypatch):
    """``split_cogroups(n)`` repartitions every ``cogroup`` input (each input
    of a list call) into ``n`` blocks from then on, so a test can compare
    one-block co-groups (one sorted block, one fold call) with several-block
    ones."""
    import importlib

    from edge_deid_studio_ray.functions import cogroup as cogroup_mod

    real = cogroup_mod.cogroup

    def split(n: int) -> None:
        def cogroup(ds, key, fn, schema):
            if isinstance(ds, (list, tuple)):
                return real([d.repartition(n) for d in ds], key, fn, schema)
            return real(ds.repartition(n), key, fn, schema)

        for name in _COGROUP_USERS:
            monkeypatch.setattr(importlib.import_module(name), "cogroup", cogroup)

    return split
