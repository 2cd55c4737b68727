"""Round-4 hardening: coded triangle fallback, trigram vocab prune, the
one co-group primitive."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


_COGROUP_SCHEMA = pa.schema({"k": pa.int64(), "label": pa.string(), "tags": pa.list_(pa.string())})


def test_cogroup_all_none_groups_give_typed_zero_rows(ray_session):
    """A fold that drops every group still yields the declared columns and
    types (the schema-less empty frame broke ``sources_except``)."""
    import ray.data as rd

    from edge_deid_studio_ray.pipelines.queries import cogroup

    ds = rd.from_items([{"k": i % 5, "v": i} for i in range(40)])
    out = cogroup(ds, "k", lambda g: None, _COGROUP_SCHEMA).materialize()
    assert out.count() == 0
    assert out.schema().names == _COGROUP_SCHEMA.names
    assert out.schema().types == _COGROUP_SCHEMA.types


def test_cogroup_blocks_are_arrow_cast_to_schema(ray_session):
    import pandas as pd
    import ray
    import ray.data as rd

    from edge_deid_studio_ray.functions.cogroup import each_key
    from edge_deid_studio_ray.pipelines.queries import cogroup

    def fold(g: pd.DataFrame) -> pd.DataFrame | None:
        k = int(g["k"].iloc[0])
        if k == 0:
            return None
        # float keys, extra and out-of-order columns: the schema decides
        return pd.DataFrame({"extra": [1], "tags": [["a"] * k], "label": [f"n{len(g)}"], "k": [float(k)]})

    ds = rd.from_items([{"k": i % 4, "v": i} for i in range(40)])
    out = cogroup(ds, "k", each_key("k", fold), _COGROUP_SCHEMA).materialize()
    blocks = [ray.get(ref) for b in out.iter_internal_ref_bundles() for ref in b.block_refs]
    assert blocks and all(isinstance(b, pa.Table) for b in blocks)
    # zero-row blocks of empty sort partitions never reach the fold
    assert all(b.schema.equals(_COGROUP_SCHEMA) for b in blocks if b.num_rows)
    rows = sorted(out.take_all(), key=lambda r: r["k"])
    assert [(r["k"], r["label"], list(r["tags"])) for r in rows] == [
        (1, "n10", ["a"]),
        (2, "n10", ["a", "a"]),
        (3, "n10", ["a", "a", "a"]),
    ]


def test_cogroup_null_string_key_across_blocks(ray_session):
    """A string key holding nulls in several input blocks co-groups without
    error (Ray's sort on the raw key compares None with str and raises),
    and every null-key row lands in one group."""
    import pandas as pd
    import ray.data as rd

    from edge_deid_studio_ray.functions.cogroup import cogroup, each_key

    blocks = [
        pa.table({"s": ["a", None, "b", "c"], "v": [1, 2, 3, 4]}),
        pa.table({"s": [None, "b", "a", None], "v": [5, 6, 7, 8]}),
        pa.table({"s": ["c", None, "d", "a"], "v": [9, 10, 11, 12]}),
    ]

    def total(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"s": [g["s"].iloc[0]], "n": [len(g)], "v": [int(g["v"].sum())]})

    out = cogroup(
        rd.from_arrow(blocks), "s", each_key("s", total), {"s": pa.string(), "n": pa.int64(), "v": pa.int64()}
    ).take_all()
    got = sorted((r["s"] or "", r["n"], r["v"]) for r in out)
    assert got == [("", 4, 25), ("a", 3, 20), ("b", 2, 9), ("c", 2, 13), ("d", 1, 11)]


def test_cogroup_null_int_key_hashes_alike_in_every_block():
    """An int key block holding a null (float64 in numpy) hashes its
    non-null keys exactly as a block without one, and every null alike."""
    from edge_deid_studio_ray.functions.cogroup import _key_hash

    with_null = _key_hash(pa.table({"k": pa.array([7, None, 9], pa.int64())}), ["k"]).to_pylist()
    without = _key_hash(pa.table({"k": pa.array([9, 7], pa.int32())}), ["k"]).to_pylist()
    other_null = _key_hash(pa.table({"k": pa.array([None, 1], pa.int64())}), ["k"]).to_pylist()
    assert with_null[0] == without[1] and with_null[2] == without[0]
    assert with_null[1] == other_null[0]
    assert len({with_null[0], with_null[1], with_null[2], other_null[1]}) == 4


def test_cogroup_calls_fn_once_per_sorted_block(ray_session):
    """``fn`` receives whole sorted blocks: one call per non-empty block of
    the sort, each holding every row of the keys it sees."""
    import pandas as pd
    import ray.data as rd

    from edge_deid_studio_ray.functions.cogroup import cogroup

    def census(block: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"rows": [len(block)], "keys": [block["k"].nunique()]})

    schema = {"rows": pa.int64(), "keys": pa.int64()}
    items = [{"k": i % 300, "v": i} for i in range(3000)]
    one = cogroup(rd.from_items(items).repartition(1), "k", census, schema).take_all()
    assert one == [{"rows": 3000, "keys": 300}]
    three = cogroup(rd.from_items(items).repartition(3), "k", census, schema).take_all()
    assert len(three) == 3
    assert sum(r["rows"] for r in three) == 3000
    assert sum(r["keys"] for r in three) == 300  # no key split across blocks


def test_cogroup_list_gives_one_frame_per_input(ray_session):
    """A list co-group calls ``fn`` with one frame per input.  Over disjoint
    key ranges, 200 keys on the left and 2 on the right, some of the six
    sorted blocks hold left rows only: the right input then arrives as a
    zero-row frame of the key column alone, and no key is split across
    blocks."""
    import pandas as pd
    import ray.data as rd

    from edge_deid_studio_ray.functions.cogroup import cogroup

    def census(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "left_rows": [len(left)],
                "right_rows": [len(right)],
                "left_cols": [",".join(left.columns)],
                "right_cols": [",".join(right.columns)],
                "keys": [len(set(left["k"]) | set(right["k"]))],
                "left_dtype": [str(left["v"].dtype) if "v" in left else ""],
            }
        )

    schema = {
        "left_rows": pa.int64(),
        "right_rows": pa.int64(),
        "left_cols": pa.string(),
        "right_cols": pa.string(),
        "keys": pa.int64(),
        "left_dtype": pa.string(),
    }
    left = rd.from_items([{"k": i % 200, "v": i} for i in range(2000)]).repartition(3)
    right = rd.from_arrow(pa.table({"k": pa.array([200 + i % 2 for i in range(1000)], pa.int32()), "w": ["x"] * 1000}))
    rows = cogroup([left, right.repartition(3)], "k", census, schema).take_all()
    assert sum(r["left_rows"] for r in rows) == 2000
    assert sum(r["right_rows"] for r in rows) == 1000
    assert sum(r["keys"] for r in rows) == 202  # no key split across blocks
    one_sided = [r for r in rows if not (r["left_rows"] and r["right_rows"])]
    assert one_sided, "disjoint key ranges must leave some sorted block one-sided"
    for r in rows:
        assert r["left_cols"] == ("k,v" if r["left_rows"] else "k")
        assert r["right_cols"] == ("k,w" if r["right_rows"] else "k")
        # an input's own columns keep their dtype: no null filler from the other
        assert r["left_dtype"] == ("int64" if r["left_rows"] else "")


def test_queries_fold_only_through_cogroup():
    """Every pandas co-group in the package goes through ``cogroup``, which
    sorts and folds blocks itself: no ``map_groups`` attribute in any
    module, no identity re-encoder, and no ``pd.Series`` / ``pd.array``
    frame typed by hand.  Every join is a list ``cogroup`` too: no
    ``Dataset.join`` call, and no ``cogroup`` over a hand-written union
    except the two zero-row marker unions, which are not joins."""
    import ast
    import pathlib
    import re

    import edge_deid_studio_ray

    root = pathlib.Path(edge_deid_studio_ray.__file__).parent
    callers, typed, joins, unions = [], [], [], []
    for path in sorted(root.rglob("*.py")):
        src = path.read_text()
        rel = path.relative_to(root).as_posix()
        assert "_arrow_blocks" not in src and "_as_arrow" not in src, rel
        for top in ast.parse(src).body:
            name = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "map_groups":
                    callers.append((rel, name))
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "join":
                    if any(k.arg == "join_type" for k in node.keywords):
                        joins.append((rel, name))
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "cogroup" and node.args and ".union(" in ast.unparse(node.args[0]):
                    unions.append((rel, name))
        # pd.Series(..., dtype=...), pd.array([...], dtype=...)
        typed += [(rel, m.group(0)) for m in re.finditer(r"pd\.(Series|array)\([^()]*dtype=", src)]
    assert callers == []
    assert typed == []
    assert joins == []
    assert sorted(unions) == [("functions/corpusops.py", "duplicate_ngram_spans"), ("functions/dedup.py", "_dedupe_pair_rows")]


def test_events_folds_scan_one_timeline():
    """Every ordered per-user events fold in ``queries.py`` sorts through
    ``_timeline``: no ``for`` loop iterates a ``.groupby("user_id", ...)``
    except in the three folds whose per-user work is not an ordered scan,
    and no query sets a session gap of its own (they read
    ``_SESSION_GAP_US``)."""
    import ast
    import pathlib

    from edge_deid_studio_ray.pipelines import queries

    tree = ast.parse(pathlib.Path(queries.__file__).read_text())
    loops, gaps = [], []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.For) and isinstance(node.iter, ast.Call):
                func = node.iter.func
                args = node.iter.args
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "groupby"
                    and args
                    and isinstance(args[0], ast.Constant)
                    and args[0].value == "user_id"
                ):
                    loops.append(name)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                gaps += [t.id for t in targets if isinstance(t, ast.Name) and t.id in ("GAP_US", "gap_us")]
    assert sorted(loops) == ["q_event_type_cooccurrence", "q_events_funnel_conformance", "q_events_user_entropy"]
    assert gaps == []


def test_queries_registry_is_every_q_function():
    """``QUERIES`` maps each ``q_<name>`` function of ``queries.py`` to
    ``name``, no more and no less, and every query has an oracle."""
    import inspect

    from edge_deid_studio_ray.pipelines import queries

    defined = {
        name[2:]: fn
        for name, fn in inspect.getmembers(queries, inspect.isfunction)
        if name.startswith("q_") and fn.__module__ == queries.__name__
    }
    assert queries.QUERIES == defined
    assert set(queries.QUERIES) == set(queries.ORACLE_SQL)


def test_no_bucket_layer_left():
    """The hash-bucket layer is gone package-wide: no caller sizes buckets
    or builds a bucket column, and no knob sets a bucket count."""
    import pathlib
    import re

    import edge_deid_studio_ray

    gone = re.compile(
        r"resolve_group_buckets|_ibuckets|_kbucket|_ubuckets|DEFAULT_GROUP_BUCKETS"
        r"|_ROWS_PER_BUCKET|EDS_GROUP_BUCKETS|num_buckets"
        r"|EDS_TRIANGLE_BROADCAST_EDGES|EDS_BROADCAST_KEYS_MAX|broadcast_edge_cap|broadcast_node_cap"
    )
    root = pathlib.Path(edge_deid_studio_ray.__file__).parent
    hits = [
        (path.relative_to(root).as_posix(), n)
        for path in sorted(root.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if gone.search(line)
    ]
    assert hits == []


def test_triangles_bucketed_path_matches_broadcast(ray_session, monkeypatch):
    """VERDICT r3 #1b done-criterion: forcing the fully co-grouped
    wedge-join path (a zero broadcast bound) must reproduce the broadcast
    path exactly."""
    from edge_deid_studio_ray.pipelines import queries

    sf = "/root/testdata/sf0.001"
    broadcast = queries.q_copurchase_triangles(sf)
    monkeypatch.setattr(queries, "_TRIANGLE_BROADCAST_EDGES", 0)
    bucketed = queries.q_copurchase_triangles(sf)
    nb_ = int(broadcast["n_triangles"].iloc[0])
    assert nb_ > 0, "fixture corpus must contain triangles for this test to bite"
    assert nb_ == int(bucketed["n_triangles"].iloc[0])


def test_wedge_pair_chunks_cover_triangular_space():
    from edge_deid_studio_ray.pipelines.queries import _wedge_pair_chunks

    nbrs = np.arange(10, 75, dtype=np.int64)  # d=65 -> C(65,2)=2080 pairs
    got = np.concatenate(list(_wedge_pair_chunks(nbrs, cap=100)))
    d = nbrs.size
    i, j = np.triu_indices(d, k=1)
    expect = (nbrs[i] << 32) | nbrs[j]
    assert sorted(got.tolist()) == sorted(expect.tolist())
    assert got.size == d * (d - 1) // 2
    assert list(_wedge_pair_chunks(np.array([5], dtype=np.int64))) == []


class TestTrigramPrune:
    def _wide_charset_corpus(self, ray_session=None):
        """Synthetic CJK-like corpus: a huge fraction of trigram types are
        singletons (the Heap's-law regime the prune exists for)."""
        import ray.data as rd

        rng = np.random.default_rng(11)
        charset = [chr(0x4E00 + i) for i in range(600)]
        core = "資料處理引擎批次串流"  # repeated in every doc -> survives the prune
        texts = [
            core + "".join(rng.choice(charset) for _ in range(120)) for _ in range(60)
        ]
        t = pa.table(
            {
                "doc_id": pa.array(range(60), pa.int64()),
                "lang": pa.array(["zh"] * 60, pa.string()),
                "text": pa.array(texts, pa.string()),
            }
        )
        return rd.from_arrow(t), texts

    def test_min_count_prune_bounds_model_and_records_stats(self, ray_session):
        from collections import Counter

        from edge_deid_studio_ray.functions.corpusops import trigram_model

        ds, texts = self._wide_charset_corpus()
        stats: dict = {}
        logp, denoms = trigram_model(ds, min_count=2, prune_stats=stats)

        # ground truth from the raw texts
        c: Counter = Counter()
        for t in texts:
            for i in range(len(t) - 2):
                c[t[i : i + 3]] += 1
        kept = {g: n for g, n in c.items() if n >= 2}
        dropped = {g: n for g, n in c.items() if n < 2}

        assert set(k[1] for k in logp) == set(kept)
        n_l, v_l = denoms["zh"]
        assert n_l == sum(kept.values()) and v_l == len(kept)
        assert stats["zh"]["kept_types"] == len(kept)
        assert stats["zh"]["dropped_types"] == len(dropped)
        assert stats["zh"]["dropped_tokens"] == sum(dropped.values())
        # the point of the prune: a wide random charset is nearly all
        # singletons, so the broadcast table collapses
        assert len(dropped) > 20 * max(1, len(kept))

    def test_min_count_one_is_identity(self, ray_session):
        from edge_deid_studio_ray.functions.corpusops import trigram_model

        ds, _ = self._wide_charset_corpus()
        base = trigram_model(ds)
        stats: dict = {}
        same = trigram_model(ds, min_count=1, prune_stats=stats)
        assert base[0] == same[0] and base[1] == same[1]
        assert stats["zh"]["dropped_types"] == 0

    def test_fully_pruned_language_is_excluded_from_scoring(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.corpusops import (
            trigram_model,
            trigram_nll_scores,
        )

        t = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "lang": pa.array(["xx", "en"], pa.string()),
                # 'xx' doc: every trigram unique -> fully pruned at min_count=2
                "text": pa.array(["abcdefghij", "aaaa aaaa aaaa"], pa.string()),
            }
        )
        ds = rd.from_arrow(t)
        logp, denoms = trigram_model(ds, min_count=2)
        assert "xx" not in denoms and "en" in denoms
        rows = trigram_nll_scores(ds, logp, denoms).take_all()
        assert sorted(r["doc_id"] for r in rows) == [2]


class TestBridgeLsh:
    def test_bridge_gaussian_deterministic_and_standard(self):
        from edge_deid_studio_ray.functions.simsearch import bridge_gaussian

        vals = [bridge_gaussian(f"hp:29:{t}:{p}:{d}") for t in range(4) for p in range(4) for d in range(16)]
        assert vals == [bridge_gaussian(f"hp:29:{t}:{p}:{d}") for t in range(4) for p in range(4) for d in range(16)]
        # crude standard-normal sanity: mean ~0, sd ~1 over 256 draws
        m = sum(vals) / len(vals)
        sd = (sum((v - m) ** 2 for v in vals) / len(vals)) ** 0.5
        assert abs(m) < 0.25 and 0.75 < sd < 1.25

    def test_sign_round_dp_changes_only_boundary_dots(self):
        import numpy as np

        from edge_deid_studio_ray.functions.simsearch import hyperplane_bucket

        rng = np.random.default_rng(3)
        mat = rng.standard_normal((50, 8))
        planes = rng.standard_normal((4, 8))
        plain = hyperplane_bucket(mat, planes)
        rounded = hyperplane_bucket(mat, planes, sign_round_dp=12)
        # dots here are O(1), far from the 1e-12 grid: identical buckets
        assert plain.tolist() == rounded.tolist()


class TestSynthQualityFixture:
    """The corruption slice must surface every validate_span_example issue
    kind, and the fixture writer must mirror the distributed mutation."""

    def test_mutation_variants_cover_all_issue_kinds(self):
        from edge_deid_studio_ray.kernels.quality import validate_span_example
        from edge_deid_studio_ray.pipelines.queries import (
            _SYNTH_MUTATE_EVERY,
            _mutate_arrow_entities,
        )

        text = "hello world example"
        base = [
            {"type": "NAME", "start": 0, "end": 5, "text": "hello",
             "confidence": 1.0, "source": "synthetic", "language": "zh"},
            {"type": "ID", "start": 6, "end": 11, "text": "world",
             "confidence": 1.0, "source": "synthetic", "language": "zh"},
        ]
        kinds = set()
        for v in range(5):
            i = v * _SYNTH_MUTATE_EVERY
            mutated = _mutate_arrow_entities(i, text, [dict(e) for e in base])
            ents = [{**e, "span": (e["start"], e["end"])} for e in mutated]
            for issue in validate_span_example(text, ents):
                kinds.add(issue["kind"])
        assert kinds == {
            "missing_type", "span_out_of_bounds", "empty_span",
            "text_mismatch", "overlap",
        }
        # non-slice rows pass through untouched
        assert _mutate_arrow_entities(1, text, base) is base

    def test_fixture_mirrors_distributed_mutation(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.pipelines import queries as q

        ex_path, ent_path = q._ensure_synth_fixture("/root/testdata/sf0.001")
        ex = pq.read_table(ex_path)
        ent = pq.read_table(ent_path)
        assert ex.num_rows == q._synth_rows_for("/root/testdata/sf0.001")
        # the distributed query path regenerates the same mutated rows:
        # re-derive entity tuples for a handful of examples straight from
        # the seeded generator + mutation kernel
        from edge_deid_studio_ray.kernels.synthetic import generate_synthetic_span_examples
        from edge_deid_studio_ray.pipelines.training_data import _entities_to_arrow

        exs = generate_synthetic_span_examples(num_examples=ex.num_rows, seed=9, language="zh")
        by_ex: dict[int, list] = {}
        for eid, t, s, e, tx in zip(
            ent["example_id"].to_pylist(), ent["type"].to_pylist(),
            ent["start"].to_pylist(), ent["end"].to_pylist(),
            ent["ent_text"].to_pylist(),
        ):
            by_ex.setdefault(eid, []).append((t, s, e, tx))
        for i in [0, 1, 37, 74, 111, 148, 185]:
            expect = [
                (e["type"], e["start"], e["end"], e["text"])
                for e in q._mutate_arrow_entities(
                    i, exs[i]["text"], _entities_to_arrow(exs[i]["entities"])
                )
            ]
            assert by_ex.get(i, []) == expect, i


class TestNewOpsBucketInvariance:
    """Partition invariance: the continuation-session co-group operators
    give the same results when every co-group input is one block and when
    it is several."""

    NAMES = [
        "nb_lang_confusion",
        "chi2_term_lang",
        "k_anonymity_audit",
        "lang_jsd_divergence",
        "events_funnel_conformance",
        "copurchase_kcore",
    ]

    def _canon(self, result):
        import pandas as pd
        from ray.data import Dataset

        if isinstance(result, Dataset):
            df = result.to_pandas()
        elif isinstance(result, pa.Table):
            df = result.to_pandas()
        else:
            df = result
        df = df[sorted(df.columns)].copy()
        return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)

    def test_results_invariant_under_bucket_count(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        sf = "/root/testdata/sf0.001"
        split_cogroups(1)
        base = {n: self._canon(QUERIES[n](sf)) for n in self.NAMES}
        split_cogroups(3)
        for n in self.NAMES:
            again = self._canon(QUERIES[n](sf))
            assert again.equals(base[n]), n


class TestSizedBucketsMatchFixedCount(TestNewOpsBucketInvariance):
    """The benchmarked co-group queries give the same frames when every
    co-group input is one block (one sorted block, one fold call) and when
    it is several."""

    NAMES = [
        "events_sessions",
        "events_interarrival_hist",
        "customer_order_cohorts",
        "corpus_snapshot_diff",
        "customer_name_editdist_pairs",
        "referential_orphans",
        "user_erasure_audit",
    ]

    def test_results_invariant_under_bucket_count(self, ray_session, monkeypatch, split_cogroups):
        from edge_deid_studio_ray.pipelines import queries

        sf = "/root/testdata/sf0.001"
        # referential_orphans: force the co-grouped path (every parent is
        # over the broadcast bound) so its co-group is the one compared
        monkeypatch.setattr(queries, "_BROADCAST_KEYS_MAX", 0)
        split_cogroups(1)
        sized = {n: self._canon(queries.QUERIES[n](sf)) for n in self.NAMES}
        split_cogroups(3)
        for n in self.NAMES:
            assert self._canon(queries.QUERIES[n](sf)).equals(sized[n]), n


class TestSizedReadsMatchParentShape:
    """The benchmarked queries, plus a ``_read_spread`` caller outside that
    mix, give the same frames with footer-sized reads as with every read
    split into 2 × cluster CPUs blocks (Ray's CPU floor)."""

    NAMES = TestSizedBucketsMatchFixedCount.NAMES + ["exact_dedup_groups", "text_fingerprints"]
    _canon = TestNewOpsBucketInvariance._canon

    def test_results_invariant_under_read_blocks(self, ray_session, monkeypatch):
        from edge_deid_studio_ray.config import cluster_cpus
        from edge_deid_studio_ray.pipelines import queries

        sf = "/root/testdata/sf0.001"
        sized = {n: self._canon(queries.QUERIES[n](sf)) for n in self.NAMES}
        monkeypatch.setattr(queries, "_read_blocks", lambda path, columns=None: 2 * cluster_cpus())
        for n in self.NAMES:
            assert self._canon(queries.QUERIES[n](sf)).equals(sized[n]), n


class TestFooterSizedRead:
    def test_small_table_is_one_fused_block(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import _read

        stats = _read("/root/testdata/sf0.001", "events", ["user_id", "ts"]).materialize().stats()
        assert "Operator 1 ReadParquet->MapBatches(_strip_meta): 1 tasks executed, 1 blocks" in stats
        assert "SplitBlocks" not in stats and "Operator 2" not in stats

    def test_spread_read_has_no_repartition(self, ray_session):
        from edge_deid_studio_ray.config import cluster_cpus
        from edge_deid_studio_ray.pipelines.queries import _read_spread

        ds = _read_spread("/root/testdata/sf0.001", "documents", ["doc_id", "text"]).materialize()
        assert "Repartition" not in ds.stats()
        assert ds.num_blocks() == cluster_cpus()

    def test_table_past_cpu_floor_gets_no_override(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.config import cluster_cpus
        from edge_deid_studio_ray.pipelines.queries import _read_blocks

        floor_mib = 2 * cluster_cpus()
        rows = (floor_mib << 20) // 8 + 1
        t = pa.table({"a": np.arange(rows, dtype=np.int64), "b": np.zeros(rows, np.int64)})
        path = str(tmp_path / "big.parquet")
        pq.write_table(t, path, use_dictionary=False, compression="none")
        assert _read_blocks(path) is None
        assert _read_blocks(path, ["a"]) is None
        # the projection is what is sized: one column under the floor is
        # read as its own MiB count of blocks
        pq.write_table(t.slice(0, rows // 2), path, use_dictionary=False, compression="none")
        assert _read_blocks(path, ["a"]) == floor_mib // 2


class TestQueryReadsStructure:
    """Every query read of an ``sf_dir`` table goes through ``_read`` (the
    filtered embeddings seed reads excepted), and no read is followed by a
    Repartition back to one block per CPU: ``_read_spread`` splits at read
    time instead."""

    @staticmethod
    def _module():
        import ast
        import inspect

        from edge_deid_studio_ray.pipelines import queries

        return ast.parse(inspect.getsource(queries))

    @staticmethod
    def _callee(node) -> str | None:
        import ast

        if not isinstance(node, ast.Call):
            return None
        f = node.func
        return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None

    def test_table_reads_go_through_read(self):
        import ast

        tree = self._module()
        stray = []
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "_read":
                continue
            for node in ast.walk(fn):
                if self._callee(node) != "read_parquet" or not node.args:
                    continue
                src = ast.unparse(node.args[0])
                if src.startswith("os.path.join(sf_dir") and not any(k.arg == "filter" for k in node.keywords):
                    stray.append(f"{fn.name}: {ast.unparse(node)}")
        assert not stray, stray

    def test_no_spread_repartition_after_read(self):
        import ast

        bad = []
        for node in ast.walk(self._module()):
            if self._callee(node) != "repartition" or not node.args:
                continue
            if self._callee(node.args[0]) != "_spread_blocks":
                continue
            link = node.func.value
            while isinstance(link, (ast.Call, ast.Attribute)):
                if self._callee(link) in ("_read", "_read_spread"):
                    bad.append(ast.unparse(node))
                    break
                link = link.func if isinstance(link, ast.Call) else link.value
        assert not bad, bad


def _sessionize_loop(bucket, gap_us):
    """The per-user pandas fold ``q_events_sessions`` ran before
    ``_sessionize``, kept verbatim as its reference."""
    import pandas as pd

    outs = []
    for _, g in bucket.groupby("user_id", sort=False):
        g = g.sort_values("us")
        new_session = (g["us"].diff().fillna(gap_us + 1) > gap_us).cumsum()
        out = g.groupby(new_session).agg(
            session_start_us=("us", "min"),
            session_end_us=("us", "max"),
            n_events=("us", "size"),
        )
        out["user_id"] = g["user_id"].iloc[0]
        outs.append(out)
    return pd.concat(outs, ignore_index=True)


class TestSessionizeMatchesLoop:
    GAP = 10

    def _check(self, events, gap_us):
        import pandas as pd

        from edge_deid_studio_ray.pipelines.queries import _sessionize

        bucket = pd.DataFrame(events, columns=["user_id", "us"]).astype("int64")

        def canon(df):
            df = df[sorted(df.columns)].astype("int64")
            return df.sort_values(by=list(df.columns)).reset_index(drop=True)

        pd.testing.assert_frame_equal(canon(_sessionize(bucket, gap_us)), canon(_sessionize_loop(bucket, gap_us)))

    def test_edge_cases(self):
        g = self.GAP
        # ties in ts, a gap of exactly gap_us (stays open), gap_us + 1
        # (splits), a single-event user, unsorted input
        self._check([(1, 5), (2, 100), (1, 5), (1, 5 + g), (1, 6 + 2 * g), (3, 7), (1, 0)], g)
        # the production gap over microsecond timestamps
        gap = 1_800_000_000
        t0 = 1_700_000_000_000_000
        self._check([(9, t0 + gap), (9, t0), (9, t0 + 2 * gap + 1), (4, t0)], gap)

    def test_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        g = self.GAP
        event = st.tuples(st.integers(-3, 5), st.integers(0, 6 * g))

        @settings(max_examples=300, deadline=None)
        @given(st.lists(event, min_size=1, max_size=60))
        def check(events):
            self._check(events, g)

        check()


class TestLevenshteinOracleEquivalence:
    """The funnel-conformance DP must be bit-identical to DuckDB's
    levenshtein (the oracle function) on arbitrary strings."""

    def test_hypothesis_matches_duckdb(self):
        import duckdb
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from edge_deid_studio_ray.pipelines.queries import _levenshtein as lev

        con = duckdb.connect()
        alphabet = st.text(alphabet="svcpe?", max_size=24)

        @settings(max_examples=200, deadline=None)
        @given(alphabet, alphabet)
        def check(a, b):
            got = con.sql("SELECT levenshtein(?, ?)", params=[a, b]).fetchone()[0]
            assert lev(a, b) == got, (a, b)

        check()


class TestRound4WrapOps:
    """Link inversion (pages_anchor_text), CCNet line dedup
    (pages_line_dedup) and the script-mix gate (doc_script_ratios).
    The oracle sweep pins them against DuckDB; these tests pin the parts
    SQL can't: UTF-32 codepoint semantics (astral chars count once) and
    the structural invariants of the aggregations."""

    def test_script_ratios_astral_and_cjk(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.pipelines.queries import q_doc_script_ratios

        t = pa.table(
            {
                "text": pa.array(["ab1 \U0001F680\U0001F680漢字", "\U0001F30D xyz", None, ""], pa.string()),
                "lang": pa.array(["en", "en", "zh", "zh"], pa.string()),
            }
        )
        pq.write_table(t, tmp_path / "documents.parquet")
        got = q_doc_script_ratios(str(tmp_path)).to_pandas().set_index("lang")
        en = got.loc["en"]
        assert int(en["n_alpha"]) == 5 and int(en["n_digit"]) == 1
        assert int(en["n_space"]) == 2 and int(en["n_cjk"]) == 2
        # astral chars are ONE codepoint each in UTF-32: 8 + 5
        assert int(en["n_chars"]) == 13
        zh = got.loc["zh"]
        assert int(zh["n_chars"]) == 0 and int(zh["n_cjk"]) == 0

    def test_script_ratios_matches_python_recount(self, ray_session):
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.pipelines.queries import q_doc_script_ratios

        sf = "/root/testdata/sf0.001"
        got = q_doc_script_ratios(sf).to_pandas().set_index("lang").sort_index()
        t = pq.read_table(f"{sf}/documents.parquet", columns=["text", "lang"])
        from collections import defaultdict

        agg = defaultdict(lambda: [0] * 5)
        for text, lang in zip(t["text"].to_pylist(), t["lang"].to_pylist()):
            a = agg[lang]
            for ch in text or "":
                o = ord(ch)
                a[0] += (65 <= o <= 90) or (97 <= o <= 122)
                a[1] += 48 <= o <= 57
                a[2] += o in (32, 9, 10, 13)
                a[3] += 0x4E00 <= o <= 0x9FFF
                a[4] += 1
        assert set(got.index) == set(agg)
        for lang, (na, nd, nsp, nc, nch) in agg.items():
            row = got.loc[lang]
            assert (
                int(row["n_alpha"]),
                int(row["n_digit"]),
                int(row["n_space"]),
                int(row["n_cjk"]),
                int(row["n_chars"]),
            ) == (na, nd, nsp, nc, nch)

    def test_pages_line_dedup_finds_template_lines(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_pages_line_dedup

        df = q_pages_line_dedup("/root/testdata/sf0.001").to_pandas()
        assert len(df) > 0
        assert (df["n_pages"] >= 2).all()
        assert (df["n_total"] >= df["n_pages"]).all()
        # boilerplate lines are nav/footer template tokens, not content
        assert int(df["line"].str.len().max()) < 200

    def test_pages_pii_density_invariants(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_pages_pii_density

        df = q_pages_pii_density("/root/testdata/sf0.001").to_pandas()
        assert len(df) > 0
        assert (df["n_chars"] >= df["n_pages"]).all()
        assert (df["n_pii"] >= 0).all()
        # the synthetic corpus embeds PII in content paragraphs, so the
        # token contract must fire somewhere
        assert int(df["n_pii"].sum()) > 0

    def test_pages_anchor_text_invariants(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_pages_anchor_text

        df = q_pages_anchor_text("/root/testdata/sf0.001").to_pandas()
        assert len(df) > 0
        assert (df["top_anchor_n"] <= df["n_total"]).all()
        assert (df["n_anchors"] >= 1).all()
        assert df["href"].str.startswith("/").all()
        assert df["href"].is_unique

    def test_copurchase_assortativity_bounds_and_moments(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_copurchase_assortativity

        df = q_copurchase_assortativity("/root/testdata/sf0.001")
        row = df.iloc[0]
        assert row["m_edges"] > 0
        # Σ(j+k) over edges = Σ_u d_u² ≥ 2M (every degree ≥ 1)
        assert row["sum_d2"] >= 2 * row["m_edges"]
        assert row["sum_d3"] >= row["sum_d2"]
        assert -1.0 <= row["assortativity"] <= 1.0

    def test_embedding_covariance_diagonal_matches_variance(self, ray_session):
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.pipelines.queries import q_embedding_covariance

        sf = "/root/testdata/sf0.001"
        got = q_embedding_covariance(sf).to_pandas()
        t = pq.read_table(f"{sf}/embeddings.parquet", columns=["embedding"])
        mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        q = np.floor(mat * 1e6 + 0.5)
        n = q.shape[0]
        # independent recount of one diagonal and one off-diagonal cell
        for i, j in [(0, 0), (0, 1), (5, 9)]:
            num = n * float((q[:, i] * q[:, j]).sum()) - q[:, i].sum() * q[:, j].sum()
            expect = round(num / n / n / 1e12, 6)
            cell = got[(got["i"] == i) & (got["j"] == j)]["cov"].iloc[0]
            assert abs(cell - expect) < 2e-6
        # upper triangle only, all dims present
        assert (got["i"] <= got["j"]).all()
        d = int(got["j"].max()) + 1
        assert len(got) == d * (d + 1) // 2


class TestLinkPagerank:
    def test_pagerank_invariants(self, ray_session):
        """Integer PageRank over the extracted outlink graph: mass is
        conserved up to floor losses, every rank carries at least the
        teleport floor, and the top-20 are the in-link-rich landing pages
        (doc pages have zero in-degree by construction of the synthetic
        corpus — all links point at root-relative nav/footer targets)."""
        from edge_deid_studio_ray.pipelines.queries import q_link_pagerank

        df = q_link_pagerank("/root/testdata/sf0.001").to_pandas()
        assert len(df) == 20
        assert (df["rank"] > 0).all()
        # sorted (rank desc, url asc)
        assert list(df["rank"]) == sorted(df["rank"], reverse=True)
        # top of the ranking is landing pages, not the zero-in-degree docs
        assert not df["url"].str.contains("/doc").any()
        # landing pages are root-relative resolutions on a crawled host
        assert df["url"].str.match(r"https://site\d+\.example/").all()


class TestAllPairsJaccard:
    def test_prefix_filter_join_invariants(self, ray_session):
        """The exact prefix-filter join: ordered pairs, τ respected, and
        every perturbed twin of a ≥5-word doc qualifies (appending one word
        to a doc with g 5-grams gives J = g/(g+5) ≥ 0.8 whenever g ≥ 20)."""
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.pipelines.queries import q_allpairs_jaccard_join

        sf = "/root/testdata/sf0.001"
        df = q_allpairs_jaccard_join(sf).to_pandas()
        assert len(df) > 0
        assert (df["left"] < df["right"]).all()
        assert (df["jaccard"] >= 0.8).all() and (df["jaccard"] <= 1.0).all()
        docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
        twins = set()
        for _, r in docs.iterrows():
            w = (r["text"] or "").lower().split()
            g = max(len(w) - 4, 1) if w else 0
            if g >= 20:
                twins.add((int(r["doc_id"]), int(r["doc_id"]) + 1_000_000))
        got = set(zip(df["left"], df["right"]))
        missing = twins - got
        assert not missing, f"prefix filter missed {len(missing)} guaranteed twins"


@pytest.mark.parametrize("which", ["pages", "synth"])
def test_fixture_rewrite_survives_a_crash_before_the_marker(which, tmp_path, monkeypatch):
    """A fixture rewrite that dies after its data write but before its
    marker write leaves no stamp behind: the next run at the old sf
    regenerates that sf's corpus instead of reading the other sf's."""
    import builtins

    import pyarrow.parquet as pq

    from edge_deid_studio_ray.pipelines import queries as q

    if which == "pages":
        monkeypatch.setattr(q, "_PAGES_FIXTURE", str(tmp_path / "pages.parquet"))
        ensure, rows_for = q._ensure_pages_fixture, q.pages_rows_for

        def rows(sf: str) -> int:
            return pq.read_metadata(ensure(sf)).num_rows

    else:
        monkeypatch.setattr(q, "_SYNTH_FIXTURE_DIR", str(tmp_path))
        ensure, rows_for = q._ensure_synth_fixture, q._synth_rows_for

        def rows(sf: str) -> int:
            return pq.read_metadata(ensure(sf)[0]).num_rows

    small, large = "/data/sf0.001", "/data/sf0.01"
    assert rows_for(small) != rows_for(large)
    assert rows(small) == rows_for(small)

    def crash_on_marker(path, mode="r", *args, **kwargs):
        if str(path).endswith("_MARKER") and "w" in mode:
            raise OSError("simulated crash before the marker write")
        return builtins.open(path, mode, *args, **kwargs)

    monkeypatch.setattr(q, "open", crash_on_marker, raising=False)
    with pytest.raises(OSError, match="simulated crash"):
        ensure(large)
    monkeypatch.delattr(q, "open")
    assert rows(small) == rows_for(small)
    assert not list(tmp_path.glob("*.tmp"))
