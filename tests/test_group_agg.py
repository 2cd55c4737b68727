"""``functions.cogroup.group_agg``: the engine's one grouped aggregate."""

from __future__ import annotations

import pyarrow as pa


def _rows(ds) -> list[dict]:
    return sorted(ds.take_all(), key=lambda r: tuple((v is None, str(v)) for v in r.values()))


def _blocks(table: pa.Table, n: int):
    import ray.data as rd

    step = -(-table.num_rows // n)
    return rd.from_arrow([table.slice(i, step) for i in range(0, table.num_rows, step)])


def test_multi_key_groups_merge_across_blocks(ray_session):
    from edge_deid_studio_ray.functions.cogroup import group_agg

    t = pa.table(
        {
            "a": ["x", "x", "y", "x", "y", "x"],
            "b": [1, 2, 1, 1, 1, 2],
            "v": [1.5, 2.0, 3.0, 4.0, 5.0, 6.0],
            "s": ["p", "q", "r", "a", "z", "m"],
        }
    )
    aggs = {"n": ("count",), "total": ("sum", "v"), "lo": ("min", "s"), "hi": ("max", "v")}
    out = group_agg(_blocks(t, 3), ["a", "b"], **aggs)
    assert out.schema().names == ["a", "b", "n", "total", "lo", "hi"]
    expected = [
        {"a": "x", "b": 1, "n": 2, "total": 5.5, "lo": "a", "hi": 4.0},
        {"a": "x", "b": 2, "n": 2, "total": 8.0, "lo": "m", "hi": 6.0},
        {"a": "y", "b": 1, "n": 2, "total": 8.0, "lo": "r", "hi": 5.0},
    ]
    assert _rows(out) == expected
    # a list of inputs aggregates their union
    assert _rows(group_agg([_blocks(t.slice(0, 2), 1), _blocks(t.slice(2), 2)], ["a", "b"], **aggs)) == expected


def test_int32_key_next_to_int64_sum(ray_session):
    from edge_deid_studio_ray.functions.cogroup import group_agg

    t = pa.table({"k": pa.array([3, 1, 3, 1, 2], pa.int32()), "v": pa.array([2**40, 1, 2**40, 2, 5], pa.int64())})
    out = group_agg(_blocks(t, 2), "k", s=("sum", "v"), n=("count",), m=("min", "k"))
    schema = out.schema().base_schema
    assert (schema.field("k").type, schema.field("s").type, schema.field("n").type) == (pa.int32(), pa.int64(), pa.int64())
    assert schema.field("m").type == pa.int32()
    assert _rows(out) == [
        {"k": 1, "s": 3, "n": 2, "m": 1},
        {"k": 2, "s": 5, "n": 1, "m": 2},
        {"k": 3, "s": 2**41, "n": 2, "m": 3},
    ]


def test_null_key_is_one_group(ray_session):
    from edge_deid_studio_ray.functions.cogroup import group_agg

    t = pa.table({"k": ["a", None, "a", None, None], "v": [1, 2, 3, 4, 5]})
    out = group_agg(_blocks(t, 3), "k", s=("sum", "v"), n=("count",))
    assert _rows(out) == [{"k": "a", "s": 4, "n": 2}, {"k": None, "s": 11, "n": 3}]


def test_all_null_sum_is_null(ray_session):
    from edge_deid_studio_ray.functions.cogroup import group_agg

    t = pa.table({"k": [1, 1, 2, 2], "v": pa.array([None, None, 1.0, None], pa.float64())})
    out = group_agg(_blocks(t, 2), "k", s=("sum", "v"), lo=("min", "v"), n=("count",))
    assert _rows(out) == [{"k": 1, "s": None, "lo": None, "n": 2}, {"k": 2, "s": 1.0, "lo": 1.0, "n": 2}]


def test_zero_row_input_has_no_schema(ray_session):
    import ray.data as rd

    from edge_deid_studio_ray.functions.cogroup import group_agg

    ds = rd.from_arrow(pa.table({"k": [1, 2], "v": [1, 2]})).filter(lambda r: False)
    out = group_agg(ds, "k", s=("sum", "v"))
    assert out.count() == 0
    assert out.schema() is None


def test_dictionary_key_is_decoded(ray_session):
    from edge_deid_studio_ray.functions.cogroup import group_agg

    t = pa.table({"k": pa.array(["b", "a", "b", "c", "a"]).dictionary_encode(), "v": [1, 2, 3, 4, 5]})
    # blocks with different dictionaries group as one
    out = group_agg(_blocks(t, 2), "k", s=("sum", "v"), hi=("max", "v"))
    assert out.schema().base_schema.field("k").type == pa.string()
    assert _rows(out) == [{"k": "a", "s": 7, "hi": 5}, {"k": "b", "s": 4, "hi": 3}, {"k": "c", "s": 4, "hi": 4}]


def test_merge_runs_one_task_per_cpu_not_per_block(ray_session):
    """The partials are sorted into one block per cluster CPU (two at
    least), whatever the input's block count: 16 one-row blocks run as many
    merge tasks as CPUs."""
    from edge_deid_studio_ray.config import cluster_cpus
    from edge_deid_studio_ray.functions.cogroup import group_agg

    t = pa.table({"k": [f"t{i % 4}" for i in range(16)], "v": list(range(16))})
    out = group_agg(_blocks(t, 16), "k", s=("sum", "v")).materialize()
    assert _rows(out) == [{"k": f"t{i}", "s": sum(range(i, 16, 4))} for i in range(4)]
    parts = max(2, cluster_cpus())
    assert f"MapBatches(merge): {parts} tasks executed, {parts} blocks" in out.stats()
