"""The two actor-pool queries finish on small clusters.

Each case runs both queries in a fresh Ray cluster of ``num_cpus`` CPUs in
a subprocess under a timeout: a pool whose actors hold every CPU starves
the upstream tasks that feed it, and the query then hangs instead of
failing.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from test_queries_oracle import SF

_SCRIPT = """
import sys
import ray
from ray.data import DataContext

ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False, logging_level="ERROR")
sf = sys.argv[2]
DataContext.get_current().enable_progress_bars = False
from edge_deid_studio_ray.pipelines.queries import QUERIES

for name in ("ner_stub_entity_counts", "image_deid_stub_stats"):
    out = QUERIES[name](sf)
    rows = out.count() if hasattr(out, "materialize") else len(out)
    assert rows > 0, name
    print(name, rows, flush=True)
ray.shutdown()
"""

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_actor_pool_queries_finish(num_cpus):
    env = dict(os.environ, PYTHONPATH=_ROOT)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(num_cpus), SF],
        cwd=_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "ner_stub_entity_counts" in proc.stdout and "image_deid_stub_stats" in proc.stdout
