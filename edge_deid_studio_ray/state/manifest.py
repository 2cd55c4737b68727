"""Per-partition lineage manifests + checkpoint-resume protocol.

North-rule requirement: "resumable from checkpoint with per-partition lineage
+ metrics".  Modeled on the reference's manifest-gated skip of prepared
datasets (/root/reference/scripts/run_multi_dataset_pipeline.py:552-571,
637-661 and src/deid_pipeline/training/mix.py:135-151), generalized to a
commit protocol suitable for a multi-node streaming job:

- The resumable unit is an input *shard* (a file set / row range): each shard
  streams through the full pipeline into ``out/shard=<id>/`` and, only after
  the parquet write finishes, a manifest ``out/_manifests/<id>.json`` is
  written (tmp-file + atomic rename = the commit point).
- Manifest payload = lineage (input fingerprint) + counters (docs, bytes,
  spans, per-pid breakdown, per-stage timings, per-route and per-error
  row counts) — the north-rule metrics.  The counters come from the write
  tasks themselves (pipelines/deid.py), not from a scan of the output.
- On restart, committed shards are skipped; an uncommitted shard's partial
  output directory is removed before reprocessing (idempotent: all kernels
  are deterministic).

Within a shard, rows additionally carry the ``pid = crc32(url) % P`` column:
each write task's file is sorted by it, and the manifest counts per pid.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass, field


@dataclass
class ShardManifest:
    shard_id: str
    status: str = "committed"
    docs: int = 0
    bytes: int = 0
    spans: int = 0
    per_pid: dict[str, dict[str, int]] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)
    input_fingerprint: str = ""
    # rows per extract route and per non-null error value
    routes: dict[str, int] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def manifests_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifests")


def shard_output_dir(out_dir: str, shard_id: str) -> str:
    return os.path.join(out_dir, f"shard={shard_id}")


def manifest_path(out_dir: str, shard_id: str) -> str:
    return os.path.join(manifests_dir(out_dir), f"{shard_id}.json")


def committed_shards(out_dir: str) -> dict[str, ShardManifest]:
    """Load all committed shard manifests (empty dict on a fresh run)."""
    mdir = manifests_dir(out_dir)
    result: dict[str, ShardManifest] = {}
    if not os.path.isdir(mdir):
        return result
    for name in sorted(os.listdir(mdir)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(mdir, name), encoding="utf-8") as f:
                raw = json.load(f)
            manifest = ShardManifest(**raw)
        except (json.JSONDecodeError, TypeError):
            continue  # torn write → treated as uncommitted
        if manifest.status == "committed":
            result[manifest.shard_id] = manifest
    return result


def write_manifest(out_dir: str, manifest: ShardManifest) -> str:
    """Atomically commit a shard manifest (tmp write + rename)."""
    mdir = manifests_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    final = manifest_path(out_dir, manifest.shard_id)
    tmp = final + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(manifest.to_json())
    os.replace(tmp, final)
    return final


def clear_partial_output(out_dir: str, shard_id: str) -> None:
    """Remove an uncommitted shard's partial output before reprocessing."""
    sdir = shard_output_dir(out_dir, shard_id)
    if os.path.isdir(sdir):
        shutil.rmtree(sdir)
