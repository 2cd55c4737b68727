"""The actor-pool queries and the former ``Dataset.join`` queries finish
on small clusters.

Each case runs the queries in a fresh Ray cluster of ``num_cpus`` CPUs in
a subprocess under a timeout: a pool whose actors hold every CPU starves
the upstream tasks that feed it, and the query then hangs instead of
failing.  ``Dataset.join``'s hash-shuffle aggregator actors hung the same
way at 1 CPU; those six joins now run as co-groups and must finish too.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from test_queries_oracle import SF

_QUERIES = (
    "ner_stub_entity_counts",
    "image_deid_stub_stats",
    "orders_join_customers",
    "asia_order_volume",
    "nation_trade_flow",
    "returnflag_priority_counts",
    "market_share",
    "product_profit",
)

_SCRIPT = """
import sys
import ray
from ray.data import DataContext

ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False, logging_level="ERROR")
sf = sys.argv[2]
DataContext.get_current().enable_progress_bars = False
from edge_deid_studio_ray.pipelines.queries import QUERIES

for name in sys.argv[3:]:
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
        [sys.executable, "-c", _SCRIPT, str(num_cpus), SF, *_QUERIES],
        cwd=_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    finished = {line.split()[0] for line in proc.stdout.splitlines() if line.strip()}
    assert finished >= set(_QUERIES)
