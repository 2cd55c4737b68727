"""Round-4 session-3 operators: retrieval (conjunctive/phrase), privacy
erasure, lakehouse zone maps, correlation matrix, RAKE, HITS.

The sf0.001 oracle sweep (test_queries_oracle) pins values against DuckDB;
these tests pin the structural invariants and the loud-failure guards SQL
comparison can't see."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _canon(result):
    from ray.data import Dataset

    if isinstance(result, Dataset):
        df = result.to_pandas()
    elif isinstance(result, pa.Table):
        df = result.to_pandas()
    else:
        df = result
    df = df[sorted(df.columns)].copy()
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)


class TestBucketInvariance:
    """Partition invariance: the session-3 co-group operators give the same
    results when every co-group input is one block and when it is several."""

    NAMES = ["user_erasure_audit", "rake_word_scores", "link_hits"]

    def test_results_invariant_under_bucket_count(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        split_cogroups(1)
        base = {n: _canon(QUERIES[n](SF)) for n in self.NAMES}
        split_cogroups(3)
        for n in self.NAMES:
            again = _canon(QUERIES[n](SF))
            assert again.equals(base[n]), n


class TestZoneMapPruning:
    def test_date_layout_prunes_at_least_as_well(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_zone_map_pruning

        df = _canon(q_zone_map_pruning(SF))
        by = {r["layout"]: r for _, r in df.iterrows()}
        assert set(by) == {"key_order", "date_sorted"}
        # rows_selected is layout-independent (same predicate, same rows)
        assert by["key_order"]["rows_selected"] == by["date_sorted"]["rows_selected"]
        # clustering by the filter column can never read MORE blocks than a
        # random-ish layout at equal block size: the whole point of the op
        assert (
            by["date_sorted"]["blocks_scanned"] <= by["key_order"]["blocks_scanned"]
        )
        assert 0 < by["date_sorted"]["scan_fraction"] <= 1.0


class TestCorrMatrix:
    def test_overflow_guard_trips_loudly(self, ray_session, tmp_path):
        """Lifted magnitudes past 2^25 must raise, not wrap (ADVICE-rule:
        loud failure instead of silent corruption)."""
        import ray.data as rd

        from edge_deid_studio_ray.pipelines import queries as q

        big = pa.table(
            {
                "l_quantity": pa.array([1.0], pa.float64()),
                "l_extendedprice": pa.array([float(1 << 26)], pa.float64()),
                "l_discount": pa.array([0.05], pa.float64()),
                "l_tax": pa.array([0.02], pa.float64()),
            }
        )
        d = tmp_path / "lineitem.parquet"
        import pyarrow.parquet as pq

        pq.write_table(big, d)
        # the query computes eagerly (driver fold), so the guard surfaces
        # here as a (Ray-wrapped) ValueError
        with pytest.raises(Exception, match="int64 partial bound"):
            q.q_lineitem_corr_matrix(str(tmp_path))

    def test_matches_numpy_corrcoef(self, ray_session):
        """The exact-integer path must agree with float corrcoef to ~1e-9
        on the lifted values (sanity against an independent implementation)."""
        import duckdb

        from edge_deid_studio_ray.pipelines.queries import q_lineitem_corr_matrix

        got = _canon(q_lineitem_corr_matrix(SF))
        con = duckdb.connect()
        m = con.sql(
            f"""SELECT CAST(floor(l_quantity + 0.5) AS BIGINT) a0,
                       CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT) a1,
                       CAST(floor(l_discount*100 + 0.5) AS BIGINT) a2,
                       CAST(floor(l_tax*100 + 0.5) AS BIGINT) a3
               FROM read_parquet('{SF}/lineitem.parquet')"""
        ).df()
        c = np.corrcoef(m.to_numpy(dtype=np.float64).T)
        names = ["quantity", "extendedprice", "discount", "tax"]
        for _, row in got.iterrows():
            i, j = names.index(row["col_a"]), names.index(row["col_b"])
            assert abs(row["corr"] - c[i, j]) < 1e-6, (row["col_a"], row["col_b"])


class TestRakeWordScores:
    def test_phrase_runs_hand_fixture(self, ray_session, tmp_path):
        """RAKE freq/deg on a hand-computed corpus: phrases split at the
        stopword contract, deg sums phrase lengths per occurrence."""
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.pipelines.queries import q_rake_word_scores

        # doc: "big data systems in big data" -> phrases under stopword
        # 'in': [big data systems] [big data]
        # freq: big 2, data 2, systems 1; deg: big 3+2=5, data 5, systems 3
        t = pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "text": pa.array(["big data systems in big data"], pa.string()),
            }
        )
        pq.write_table(t, tmp_path / "documents.parquet")
        df = q_rake_word_scores(str(tmp_path)).to_pandas()
        by = dict(zip(df["word"], zip(df["freq"], df["deg"])))
        assert by == {"big": (2, 5), "data": (2, 5), "systems": (1, 3)}


class TestLinkHits:
    def test_top_scores_normalized_to_scale(self, ray_session):
        """After max-normalization the best authority/hub must sit exactly
        at S = 10^6 (the integer contract the oracle unrolls)."""
        from edge_deid_studio_ray.pipelines.queries import q_link_hits

        df = q_link_hits(SF).to_pandas()
        assert len(df) == 20
        assert int(df["auth"].max()) == 1_000_000
        assert (df["auth"] >= 0).all() and (df["hub"] >= 0).all()
        # sorted by auth desc then url
        a = df["auth"].to_numpy()
        assert (a[:-1] >= a[1:]).all()


class TestRetrievalOps:
    def test_conjunctive_is_subset_of_each_term(self, ray_session):
        """AND semantics: every hit must contain every query term."""
        import duckdb

        from edge_deid_studio_ray.pipelines.queries import q_conjunctive_search

        hits = q_conjunctive_search(SF).to_pandas()
        assert len(hits) > 0
        con = duckdb.connect()
        id_list = "(" + ",".join(str(i) for i in hits["doc_id"].tolist()) + ")"
        for term in ("hash", "join", "window"):
            ok = con.sql(
                f"""SELECT COUNT(*) FROM read_parquet('{SF}/documents.parquet')
                    WHERE doc_id IN {id_list}
                      AND NOT list_contains(
                            regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                            '{term}')"""
            ).fetchone()[0]
            assert ok == 0, term

    def test_phrase_counts_positive_and_adjacent(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_phrase_search

        df = q_phrase_search(SF).to_pandas()
        assert len(df) > 0
        assert (df["n_occ"] >= 1).all()


class TestErasureAudit:
    def test_cascade_conservation(self, ray_session):
        """Erased + remaining must equal the table row counts, and the
        lineitem cascade must erase exactly the erased orders' lines."""
        import duckdb

        from edge_deid_studio_ray.pipelines.queries import q_user_erasure_audit

        df = _canon(q_user_erasure_audit(SF))
        by = {r["tbl"]: r for _, r in df.iterrows()}
        con = duckdb.connect()
        for tbl in ("events", "customer", "orders", "lineitem"):
            n = con.sql(
                f"SELECT COUNT(*) FROM read_parquet('{SF}/{tbl}.parquet')"
            ).fetchone()[0]
            assert by[tbl]["n_erased"] + by[tbl]["n_remaining"] == n, tbl
        cascade = con.sql(
            f"""SELECT COUNT(*) FROM read_parquet('{SF}/lineitem.parquet')
                WHERE l_orderkey IN (
                  SELECT o_orderkey FROM read_parquet('{SF}/orders.parquet')
                  WHERE o_custkey % 13 = 0)"""
        ).fetchone()[0]
        assert by["lineitem"]["n_erased"] == cascade


class TestBatch3BucketInvariance:
    NAMES = [
        "attribution_first_touch",
        "user_weekly_retention",
        "orders_constraint_audit",
        "zorder_layout_audit",
        # the per-user events folds on the one timeline sort
        "events_running_total",
        "events_asof_join",
        "events_funnel",
        "events_above_user_median",
        "events_rolling_max3",
        "events_lead_type",
        "events_type_transitions",
        "events_debounced",
        "events_path_trigrams",
        "events_rolling_zscore",
        "events_active_time",
        "events_cusum_alarms",
        "event_type_entropy_rate",
    ]

    def test_results_invariant_under_bucket_count(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        split_cogroups(1)
        base = {n: _canon(QUERIES[n](SF)) for n in self.NAMES}
        split_cogroups(3)
        for n in self.NAMES:
            again = _canon(QUERIES[n](SF))
            assert again.equals(base[n]), n


class TestZorderAudit:
    def test_zorder_prunes_conjunctive_predicates(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_zorder_layout_audit

        df = _canon(q_zorder_layout_audit(SF))
        by = {r["layout"]: r for _, r in df.iterrows()}
        assert set(by) == {"key_order", "zorder"}
        assert by["key_order"]["rows_selected"] == by["zorder"]["rows_selected"]
        # the point of Z-ordering: a 2-dim predicate reads fewer blocks
        # than under the single-key layout (strict on this fixture)
        assert by["zorder"]["blocks_scanned"] < by["key_order"]["blocks_scanned"]
        assert 0 < by["zorder"]["scan_fraction"] <= 1.0


class TestAttributionAndRetention:
    def test_attribution_totals_match_purchase_count(self, ray_session):
        import duckdb

        from edge_deid_studio_ray.pipelines.queries import q_attribution_first_touch

        df = q_attribution_first_touch(SF).to_pandas()
        total = int(df["n_purchases"].sum())
        con = duckdb.connect()
        n = con.sql(
            f"""SELECT COUNT(*) FROM read_parquet('{SF}/events.parquet')
                WHERE event_type = 'purchase'"""
        ).fetchone()[0]
        assert total == n

    def test_retention_diagonal_is_cohort_size(self, ray_session):
        """offset-0 count per cohort == number of users whose first week is
        that cohort (every user is active in their own first week)."""
        from edge_deid_studio_ray.pipelines.queries import q_user_weekly_retention

        df = q_user_weekly_retention(SF).to_pandas()
        d0 = df[df["week_offset"] == 0].set_index("cohort_week")["n_users"]
        for cohort, n in d0.items():
            later = df[(df["cohort_week"] == cohort) & (df["week_offset"] > 0)]
            assert (later["n_users"] <= n).all(), cohort


class TestSystematicSample:
    def test_spacing_is_exactly_k(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_systematic_sample

        df = q_systematic_sample(SF).to_pandas().sort_values("rank")
        r = df["rank"].to_numpy()
        assert (r % 997 == 0).all()
        assert (np.diff(r) == 997).all()


class TestBatch4Ops:
    def test_bucket_invariance(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        names = [
            "customer_order_gaps",
            "events_funnel_windowed",
            "events_hourly_top_types",
            "knn_mutual_pairs",
        ]
        split_cogroups(1)
        base = {n: _canon(QUERIES[n](SF)) for n in names}
        split_cogroups(3)
        for n in names:
            again = _canon(QUERIES[n](SF))
            assert again.equals(base[n]), n

    def test_windowed_funnel_bounded_by_unwindowed_users(self, ray_session):
        """The 24-hour window can only shrink the completing-user set vs
        the unbounded ordered triple."""
        import duckdb

        from edge_deid_studio_ray.pipelines.queries import q_events_funnel_windowed

        n_win = int(q_events_funnel_windowed(SF).to_pandas()["n_users"].iloc[0])
        con = duckdb.connect()
        n_any = con.sql(
            f"""SELECT COUNT(*) FROM (
                  SELECT DISTINCT e1.user_id
                  FROM read_parquet('{SF}/events.parquet') e1
                  JOIN read_parquet('{SF}/events.parquet') e2 USING (user_id)
                  JOIN read_parquet('{SF}/events.parquet') e3 USING (user_id)
                  WHERE e1.event_type='view' AND e2.event_type='click'
                    AND e3.event_type='purchase'
                    AND e1.ts < e2.ts AND e2.ts < e3.ts)"""
        ).fetchone()[0]
        assert 0 < n_win <= n_any

    def test_mutual_pairs_are_symmetric_subset(self, ray_session):
        """Every mutual pair must also appear in the one-directional kNN
        edge set in BOTH directions (left < right, no duplicates)."""
        from edge_deid_studio_ray.pipelines.queries import q_knn_mutual_pairs

        df = q_knn_mutual_pairs(SF).to_pandas()
        assert len(df) > 0
        assert (df["left"] < df["right"]).all()
        assert not df.duplicated(["left", "right"]).any()

    def test_hourly_top_types_rank_contract(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_events_hourly_top_types

        df = q_events_hourly_top_types(SF).to_pandas()
        for _, g in df.groupby("hour_us"):
            g = g.sort_values("rnk")
            assert list(g["rnk"]) == list(range(1, len(g) + 1))
            n = g["n"].to_numpy()
            assert (n[:-1] >= n[1:]).all()


class TestBatch5Ops:
    def test_bucket_invariance(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        names = [
            "events_bounce_rate",
            "event_audience_jaccard",
            "orders_basket_profile",
        ]
        split_cogroups(1)
        base = {n: _canon(QUERIES[n](SF)) for n in names}
        split_cogroups(3)
        for n in names:
            again = _canon(QUERIES[n](SF))
            assert again.equals(base[n]), n

    def test_f1_bounds_and_confusion_consistency(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import (
            q_nb_lang_confusion,
            q_nb_lang_f1,
        )

        f1 = q_nb_lang_f1(SF).to_pandas()
        conf = q_nb_lang_confusion(SF)
        conf = conf.to_pandas() if not isinstance(conf, pd.DataFrame) else conf
        assert ((f1["prec"] >= 0) & (f1["prec"] <= 1)).all()
        assert ((f1["f1"] >= 0) & (f1["f1"] <= 1)).all()
        # tp + fn per class == class truth total in the confusion matrix
        for _, row in f1.iterrows():
            truth = int(conf.loc[conf["lang"] == row["lang"], "n"].sum())
            assert row["tp"] + row["fn"] == truth, row["lang"]

    def test_audience_jaccard_bounds(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_event_audience_jaccard

        df = q_event_audience_jaccard(SF).to_pandas()
        assert len(df) == 10
        assert (df["n_both"] <= df[["n_a", "n_b"]].min(axis=1)).all()
        assert ((df["jaccard"] >= 0) & (df["jaccard"] <= 1)).all()

    def test_basket_profile_conserves_orders(self, ray_session):
        import duckdb

        from edge_deid_studio_ray.pipelines.queries import q_orders_basket_profile

        df = q_orders_basket_profile(SF).to_pandas()
        con = duckdb.connect()
        n = con.sql(
            f"SELECT COUNT(DISTINCT l_orderkey) FROM read_parquet('{SF}/lineitem.parquet')"
        ).fetchone()[0]
        assert int(df["n_orders"].sum()) == n
        assert int((df["n_lines"] * df["n_orders"]).sum()) == con.sql(
            f"SELECT COUNT(*) FROM read_parquet('{SF}/lineitem.parquet')"
        ).fetchone()[0]

    def test_bounce_sessions_match_session_count(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import (
            q_events_bounce_rate,
            q_events_sessions,
        )

        bounce = q_events_bounce_rate(SF).to_pandas()
        n_sessions = q_events_sessions(SF).count()
        assert int(bounce["n_sessions"].sum()) == n_sessions


class TestBatch6Ops:
    def test_hits_broadcast_and_cogroup_paths_identical(self, ray_session, monkeypatch):
        """The auto-switched broadcast fast path must reproduce the
        co-grouped message-passing path exactly (integer sums are
        order-free)."""
        from edge_deid_studio_ray.pipelines import queries

        fast = queries.q_link_hits(SF).to_pandas()
        monkeypatch.setattr(queries, "_HITS_BROADCAST_NODES", 0)
        slow = queries.q_link_hits(SF).to_pandas().reset_index(drop=True)
        assert fast.equals(slow)

    def test_bucket_invariance(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        names = [
            "part_cheapest_supplier",
            "link_reciprocity",
            "link_degree_histogram",
        ]
        split_cogroups(1)
        base = {n: _canon(QUERIES[n](SF)) for n in names}
        split_cogroups(3)
        for n in names:
            again = _canon(QUERIES[n](SF))
            assert again.equals(base[n]), n

    def test_cheapest_supplier_dominates(self, ray_session):
        """Every reported (part, supplier) min price must be <= any line
        price of that part (spot-check via duckdb)."""
        import duckdb

        from edge_deid_studio_ray.pipelines.queries import q_part_cheapest_supplier

        df = _canon(q_part_cheapest_supplier(SF))
        con = duckdb.connect()
        mins = con.sql(
            f"""SELECT l_partkey, MIN(CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT)) AS m
                FROM read_parquet('{SF}/lineitem.parquet') GROUP BY 1"""
        ).df().set_index("l_partkey")["m"]
        for _, row in df.iterrows():
            assert row["min_cents"] == mins[row["l_partkey"]], row["l_partkey"]

    def test_route_stats_counts_match_fixture(self, ray_session):
        import duckdb

        from edge_deid_studio_ray.pipelines.queries import _PAGES_FIXTURE, q_pages_route_stats

        df = _canon(q_pages_route_stats(SF))
        con = duckdb.connect()
        fx = con.sql(
            f"SELECT route, COUNT(*) AS n FROM read_parquet('{_PAGES_FIXTURE}') GROUP BY 1"
        ).df().set_index("route")["n"]
        for _, row in df.iterrows():
            assert row["n_pages"] == fx[row["route"]], row["route"]


class TestBatch7Ops:
    def test_bucket_invariance(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        names = [
            "session_duration_quantiles",
            "vocab_coverage_k",
            "top_word_per_lang",
        ]
        split_cogroups(1)
        base = {n: _canon(QUERIES[n](SF)) for n in names}
        split_cogroups(3)
        for n in names:
            again = _canon(QUERIES[n](SF))
            assert again.equals(base[n]), n

    def test_vocab_coverage_boundary_exact(self, ray_session):
        """k_90pct must be the MINIMUM k: k words cover >= 90%, k-1 do not
        (re-derived from exact duckdb word frequencies)."""
        import duckdb

        from edge_deid_studio_ray.pipelines.queries import q_vocab_coverage_k

        row = q_vocab_coverage_k(SF).to_pandas().iloc[0]
        con = duckdb.connect()
        freqs = [
            r[0]
            for r in con.sql(
                f"""SELECT COUNT(*) AS f FROM (
                      SELECT unnest(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+')) AS w
                      FROM read_parquet('{SF}/documents.parquet')) WHERE w <> ''
                    GROUP BY w ORDER BY f DESC"""
            ).fetchall()
        ]
        total = sum(freqs)
        k = int(row["k_90pct"])
        assert 100 * sum(freqs[:k]) >= 90 * total
        assert 100 * sum(freqs[: k - 1]) < 90 * total
        assert row["total_tokens"] == total

    def test_pchart_limits_bracket_mean(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_events_error_pchart

        df = q_events_error_pchart(SF).to_pandas()
        assert (df["lcl"] <= df["ucl"]).all()
        # overall rate sits inside every day's limits by construction
        pbar = df["n_err"].sum() / df["n"].sum()
        assert ((df["lcl"] <= pbar + 1e-9) & (pbar <= df["ucl"] + 1e-9)).all()


class TestBatch8Ops:
    def test_bucket_invariance(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        names = ["events_value_psi_bins", "sessions_concurrency_profile"]
        split_cogroups(1)
        base = {n: _canon(QUERIES[n](SF)) for n in names}
        split_cogroups(3)
        for n in names:
            again = _canon(QUERIES[n](SF))
            assert again.equals(base[n]), n

    def test_psi_bins_conserve_and_reference_deciles(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_events_value_psi_bins

        df = q_events_value_psi_bins(SF).to_pandas()
        assert len(df) == 10
        # reference deciles: each bin holds ~10% of the reference half
        n_ref = df["n_ref"].sum()
        assert (df["n_ref"] >= 0).all() and n_ref > 0
        assert abs(df["p"].sum() - 1.0) < 1e-4
        assert abs(df["q"].sum() - 1.0) < 1e-4

    def test_concurrency_bounds(self, ray_session):
        """Hourly active sessions are bounded below by sessions STARTING
        that hour and above by total sessions."""
        from edge_deid_studio_ray.pipelines.queries import (
            q_events_sessions,
            q_sessions_concurrency_profile,
        )

        prof = q_sessions_concurrency_profile(SF).to_pandas()
        n_sessions = q_events_sessions(SF).count()
        assert (prof["n_active_sessions"] >= 1).all()
        assert (prof["n_active_sessions"] <= n_sessions).all()
        # hour cells sum >= total sessions (every session covers >=1 hour)
        assert prof["n_active_sessions"].sum() >= n_sessions


class TestBatch9Ops:
    def test_search_index_staged_files_exist_and_partitioned(self, ray_session):
        """The composite must leave a partitioned postings index plus
        doclens on disk (resumable-output contract)."""
        import glob

        from edge_deid_studio_ray.pipelines.queries import (
            _search_index_staging,
            q_search_index_pipeline,
        )

        import shutil

        df = q_search_index_pipeline(SF, keep_index=True).to_pandas()
        assert len(df) == 10
        assert (df["bm25"] > 0).all()
        staging = _search_index_staging()
        parts = glob.glob(f"{staging}/postings/kb=*/")
        assert len(parts) > 1, "postings must be hash-partitioned directories"
        assert glob.glob(f"{staging}/doclens/*.parquet")
        shutil.rmtree(staging, ignore_errors=True)
        # the default path cleans up after itself
        q_search_index_pipeline(SF)
        assert not glob.glob(f"{staging}/postings/*")

    def test_staged_outputs_per_run_and_empty_stage_reads_typed(self, ray_session, tmp_path):
        """Staged-output dirs sit under one per-driver-process root that
        their ORACLE_SQL reads, and a stage that wrote no rows reads back
        as a typed zero-row result on both the engine and the oracle side."""
        import os

        import duckdb

        from edge_deid_studio_ray.pipelines import queries as q

        assert str(os.getpid()) in q._STAGING_ROOT
        for name, path in [
            ("pages_pipeline_counters", q._PPC_STAGING),
            ("training_data_pipeline", q._TDP_STAGING),
            ("ner_stub_entity_counts", q._NER_STUB_STAGING),
            ("image_deid_stub_stats", q._IMG_STUB_STAGING),
            ("placeholder_corpus", q._PLACEHOLDER_STAGING),
            ("deid_eval_aggregate", q._EVAL_STAGING),
        ]:
            assert path.startswith(q._STAGING_ROOT + "/")
            assert f"'{path}/" in q.ORACLE_SQL[name]

        schema = pa.schema({"type": pa.string(), "n": pa.int64()})
        stage = q._fresh_staging(str(tmp_path / "stage"))
        ds = q._read_staged(stage, schema)
        assert ds.count() == 0
        assert ds.schema().names == schema.names
        assert ds.schema().types == schema.types
        oracle = duckdb.sql(f"SELECT * FROM read_parquet('{stage}/*.parquet')").df()
        assert list(oracle.columns) == schema.names and len(oracle) == 0

    def test_stump_is_optimal_vs_bruteforce(self, ray_session):
        """Exhaustively re-check optimality of the reported threshold with
        an independent duckdb reconstruction."""
        import duckdb

        from edge_deid_studio_ray.pipelines.queries import q_stump_lang_classifier

        row = q_stump_lang_classifier(SF).to_pandas().iloc[0]
        con = duckdb.connect()
        feats = con.sql(
            f"""SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS en,
                       (1000 * len(list_filter(w, x -> list_contains(
                          ['the','of','and','to','a','in','is','it','you','that'], x))))
                         // len(w) AS f
                FROM (SELECT lang, list_filter(
                        regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                        x -> x <> '') AS w
                      FROM read_parquet('{SF}/documents.parquet'))
                WHERE len(w) > 0"""
        ).df()
        import numpy as np

        f = feats["f"].to_numpy()
        en = feats["en"].to_numpy()
        best = None
        for t in sorted(set(f.tolist())) + [int(f.max()) + 1]:
            errs = int(((f < t) & (en == 1)).sum() + ((f >= t) & (en == 0)).sum())
            if best is None or errs < best[1]:
                best = (t, errs)
        assert (int(row["threshold"]), int(row["n_errors"])) == best
        assert row["n_docs"] == len(feats)

    def test_bucket_invariance(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        split_cogroups(1)
        base = _canon(QUERIES["search_index_pipeline"](SF))
        split_cogroups(3)
        again = _canon(QUERIES["search_index_pipeline"](SF))
        assert again.equals(base)


class TestBatch10Ops:
    def test_bucket_invariance(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        names = ["word_burstiness_top20", "markov_next_accuracy"]
        split_cogroups(1)
        base = {n: _canon(QUERIES[n](SF)) for n in names}
        split_cogroups(3)
        for n in names:
            again = _canon(QUERIES[n](SF))
            assert again.equals(base[n]), n

    def test_burstiness_nonnegative_and_topfreq(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_word_burstiness_top20

        df = q_word_burstiness_top20(SF).to_pandas()
        assert len(df) == 20
        assert (df["fano"] >= 0).all()
        assert df["n"].min() > 0

    def test_markov_overall_consistency(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_markov_next_accuracy

        df = q_markov_next_accuracy(SF).to_pandas()
        per = df[df["cur"] != "__overall__"]
        ov = df[df["cur"] == "__overall__"].iloc[0]
        assert per["n_transitions"].sum() == ov["n_transitions"]
        assert per["n_correct"].sum() == ov["n_correct"]
        assert (per["n_correct"] <= per["n_transitions"]).all()
        # argmax prediction can never score below uniform-over-observed
        assert ov["accuracy"] >= 1.0 / 5 - 1e-9


class TestBatch12Ops:
    def test_bucket_invariance(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        names = ["lang_hapax_ratio", "lang_yule_k"]
        split_cogroups(1)
        base = {n: _canon(QUERIES[n](SF)) for n in names}
        split_cogroups(3)
        for n in names:
            again = _canon(QUERIES[n](SF))
            assert again.equals(base[n]), n

    def test_diversity_bounds(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import q_source_lang_diversity

        df = q_source_lang_diversity(SF).to_pandas()
        assert ((df["simpson_diversity"] >= 0) & (df["simpson_diversity"] <= 1)).all()
        assert df["n_docs"].sum() > 0

    def test_yule_k_positive_and_hapax_bounded(self, ray_session):
        from edge_deid_studio_ray.pipelines.queries import (
            q_lang_hapax_ratio,
            q_lang_yule_k,
        )

        yk = q_lang_yule_k(SF).to_pandas()
        assert (yk["yule_k"] >= 0).all()
        hp = q_lang_hapax_ratio(SF).to_pandas()
        assert ((hp["hapax_ratio"] >= 0) & (hp["hapax_ratio"] <= 1)).all()
        assert (hp["hapax"] <= hp["vocab"]).all()


class TestReviewRegressionFixtures:
    """Dirty-input fixtures the shipped corpus cannot produce — pinning
    the two review-pass correctness fixes on inputs that actually bite."""

    def test_mutual_knn_exact_under_duplicate_embeddings(self, ray_session, tmp_path):
        """Duplicated vectors create cosine-1.0 tie sets straddling the
        per-batch top-k boundary; the engine must still match the
        LATERAL oracle's (cosine desc, vec_id asc) selection."""
        import duckdb
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.pipelines.queries import q_knn_mutual_pairs

        rng = np.random.default_rng(11)
        base = rng.normal(size=(6, 8))
        vecs = []
        for i in range(30):
            v = base[i % 3] if i < 18 else base[3 + (i % 3)]  # heavy duplication
            vecs.append((v / np.linalg.norm(v)).tolist())
        t = pa.table(
            {
                "vec_id": pa.array(range(30), pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float64())),
            }
        )
        pq.write_table(t, tmp_path / "embeddings.parquet")
        got = (
            q_knn_mutual_pairs(str(tmp_path))
            .to_pandas()
            .sort_values(["left", "right"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        want = con.sql(
            f"""WITH knn AS (
                  SELECT q.vec_id AS src, n.vec_id AS dst
                  FROM read_parquet('{tmp_path}/embeddings.parquet') q, LATERAL (
                    SELECT e.vec_id FROM read_parquet('{tmp_path}/embeddings.parquet') e
                    WHERE e.vec_id <> q.vec_id
                    ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC,
                             e.vec_id ASC
                    LIMIT 5) n)
                SELECT a.src AS "left", a.dst AS "right"
                FROM knn a JOIN knn b ON b.src = a.dst AND b.dst = a.src
                WHERE a.src < a.dst ORDER BY 1, 2"""
        ).df()
        assert got["left"].tolist() == want["left"].tolist()
        assert got["right"].tolist() == want["right"].tolist()

    def test_constraint_audit_counts_null_status(self, ray_session, tmp_path):
        """A NULL o_orderstatus must count as a bad_orderstatus violation
        on BOTH engines (plain NOT IN would silently skip it in SQL)."""
        import duckdb
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.pipelines.queries import (
            ORACLE_SQL,
            q_orders_constraint_audit,
        )

        orders = pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3], pa.int64()),
                "o_custkey": pa.array([1, 1, 2], pa.int64()),
                "o_orderstatus": pa.array(["O", None, "X"], pa.string()),
                "o_totalprice": pa.array([10.0, 20.0, 30.0], pa.float64()),
                "o_orderdate": pa.array(
                    [pd.Timestamp("1995-01-01")] * 3, pa.timestamp("us")
                ),
                "o_orderpriority": pa.array(["1-URGENT"] * 3, pa.string()),
            }
        )
        customer = pa.table(
            {
                "c_custkey": pa.array([1, 2], pa.int64()),
                "c_name": pa.array(["a", "b"], pa.string()),
                "c_nationkey": pa.array([0, 0], pa.int32()),
                "c_acctbal": pa.array([0.0, 0.0], pa.float64()),
                "c_mktsegment": pa.array(["BUILDING"] * 2, pa.string()),
            }
        )
        pq.write_table(orders, tmp_path / "orders.parquet")
        pq.write_table(customer, tmp_path / "customer.parquet")
        df = q_orders_constraint_audit(str(tmp_path)).to_pandas()
        bad = int(df.loc[df["rule"] == "bad_orderstatus", "n_violations"].iloc[0])
        assert bad == 2  # the NULL and the 'X'
        con = duckdb.connect()
        con.sql(
            f"CREATE VIEW orders AS SELECT * FROM read_parquet('{tmp_path}/orders.parquet')"
        )
        con.sql(
            f"CREATE VIEW customer AS SELECT * FROM read_parquet('{tmp_path}/customer.parquet')"
        )
        ora = con.sql(ORACLE_SQL["orders_constraint_audit"]).df()
        obad = int(ora.loc[ora["rule"] == "bad_orderstatus", "n_violations"].iloc[0])
        assert obad == 2


class TestDegenerateInputGuards:
    """Empty / degenerate inputs where the oracle yields a 1-row NULL (or
    empty) result: the engine must degrade identically, never crash."""

    def _mini_events(self, tmp_path, rows):
        import pyarrow.parquet as pq

        t = pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([pd.Timestamp(r[1]) for r in rows], pa.timestamp("us")),
                "user_id": pa.array([r[2] for r in rows], pa.int64()),
                "event_type": pa.array([r[3] for r in rows], pa.string()),
                "value": pa.array([1.0] * len(rows), pa.float64()),
                "props": pa.array(["{}"] * len(rows), pa.string()),
            }
        )
        pq.write_table(t, tmp_path / "events.parquet")
        return str(tmp_path)

    def test_holt_single_hour_returns_typed_empty(self, ray_session, tmp_path):
        from edge_deid_studio_ray.pipelines.queries import q_events_holt_linear

        sf = self._mini_events(
            tmp_path, [(1, "2024-01-01 10:00:01", 1, "view"), (2, "2024-01-01 10:30:00", 1, "click")]
        )
        out = q_events_holt_linear(sf)
        assert out.num_rows == 0
        assert out.column_names == ["hour_us", "n", "level", "trend", "forecast_next"]

    def test_markov_no_transitions_returns_typed_empty(self, ray_session, tmp_path):
        from edge_deid_studio_ray.pipelines.queries import q_markov_next_accuracy

        sf = self._mini_events(
            tmp_path, [(1, "2024-01-01 10:00:01", 1, "view"), (2, "2024-01-02 09:00:00", 2, "click")]
        )
        out = q_markov_next_accuracy(sf)
        assert out.num_rows == 0

    def test_latency_no_conversions_matches_oracle_nulls(self, ray_session, tmp_path):
        from edge_deid_studio_ray.pipelines.queries import (
            q_conversion_latency_quantiles,
        )

        sf = self._mini_events(
            tmp_path, [(1, "2024-01-01 10:00:01", 1, "view"), (2, "2024-01-01 11:00:00", 2, "view")]
        )
        df = q_conversion_latency_quantiles(sf).to_pandas()
        assert len(df) == 1
        assert int(df["n_converted"].iloc[0]) == 0
        assert df["p50"].isna().all()

    def test_order_gaps_no_repeats_matches_oracle_nulls(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.pipelines.queries import q_customer_order_gaps

        orders = pa.table(
            {
                "o_orderkey": pa.array([1, 2], pa.int64()),
                "o_custkey": pa.array([1, 2], pa.int64()),
                "o_orderstatus": pa.array(["O", "F"], pa.string()),
                "o_totalprice": pa.array([1.0, 2.0], pa.float64()),
                "o_orderdate": pa.array(
                    [pd.Timestamp("1995-01-01"), pd.Timestamp("1995-02-01")],
                    pa.timestamp("us"),
                ),
                "o_orderpriority": pa.array(["1-URGENT"] * 2, pa.string()),
            }
        )
        pq.write_table(orders, tmp_path / "orders.parquet")
        df = q_customer_order_gaps(str(tmp_path)).to_pandas()
        assert len(df) == 1
        assert int(df["n_gaps"].iloc[0]) == 0
        assert df["mean_gap_days"].isna().all()


class TestAdviceR5Guards:
    """Round-5 review fixes: degenerate guards for pchart / stump / PSI and
    the RAKE in-band sentinel removal — each pinned against the oracle's
    degraded output shape on a dirty mini-fixture."""

    def _events(self, tmp_path, rows):
        import pyarrow.parquet as pq

        t = pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([pd.Timestamp(r[1]) for r in rows], pa.timestamp("us")),
                "user_id": pa.array([r[2] for r in rows], pa.int64()),
                "event_type": pa.array([r[3] for r in rows], pa.string()),
                "value": pa.array([r[4] for r in rows], pa.float64()),
                "props": pa.array(["{}"] * len(rows), pa.string()),
            }
        )
        pq.write_table(t, tmp_path / "events.parquet")
        return str(tmp_path)

    def _documents(self, tmp_path, texts, langs=None):
        import pyarrow.parquet as pq

        langs = langs or ["en"] * len(texts)
        t = pa.table(
            {
                "doc_id": pa.array(range(1, len(texts) + 1), pa.int64()),
                "url": pa.array([f"u{i}" for i in range(len(texts))], pa.string()),
                "source": pa.array(["s"] * len(texts), pa.string()),
                "lang": pa.array(langs, pa.string()),
                "text": pa.array(texts, pa.string()),
                "ts": pa.array(
                    [pd.Timestamp("2024-01-01")] * len(texts), pa.timestamp("us")
                ),
            }
        )
        pq.write_table(t, tmp_path / "documents.parquet")
        return str(tmp_path)

    def test_pchart_empty_events_returns_typed_empty(self, ray_session, tmp_path):
        from edge_deid_studio_ray.pipelines.queries import q_events_error_pchart

        sf = self._events(tmp_path, [])
        out = q_events_error_pchart(sf)
        assert out.num_rows == 0
        assert out.column_names == [
            "day_us", "n", "n_err", "err_rate", "ucl", "lcl", "out_of_control",
        ]

    def test_psi_empty_events_matches_oracle_nulls(self, ray_session, tmp_path):
        from edge_deid_studio_ray.pipelines.queries import q_events_value_psi_bins

        sf = self._events(tmp_path, [])
        df = q_events_value_psi_bins(sf).to_pandas()
        assert len(df) == 10
        assert df["p"].isna().all() and df["q"].isna().all()
        assert (df["psi_term"] == 0.0).all()

    def test_psi_empty_reference_half_bins_all_cur_in_bin0(self, ray_session, tmp_path):
        from edge_deid_studio_ray.pipelines.queries import q_events_value_psi_bins

        # the only non-null values sit in the SECOND time-half: every oracle
        # cut is NULL, so all current rows land in bin 0 with p = NULL
        sf = self._events(
            tmp_path,
            [
                (1, "2024-01-01 10:00:00", 1, "view", None),
                (2, "2024-01-05 10:00:00", 1, "click", 3.25),
                (3, "2024-01-05 11:00:00", 2, "error", 4.75),
            ],
        )
        df = q_events_value_psi_bins(sf).to_pandas()
        assert len(df) == 10
        assert df["p"].isna().all()
        assert int(df.loc[df["bin"] == 0, "n_cur"].iloc[0]) == 2
        assert int(df["n_cur"].sum()) == 2
        assert (df["psi_term"] == 0.0).all()

    def test_stump_all_empty_docs_matches_oracle_sentinel(self, ray_session, tmp_path):
        from edge_deid_studio_ray.pipelines.queries import q_stump_lang_classifier

        sf = self._documents(tmp_path, ["", "   "], langs=["en", "de"])
        df = q_stump_lang_classifier(sf).to_pandas()
        assert len(df) == 1
        assert df["threshold"].isna().all()
        assert df["n_docs"].isna().all()

    def test_rake_literal_sentinel_token_is_ordinary_word(self, ray_session, tmp_path):
        from edge_deid_studio_ray.pipelines.queries import q_rake_word_scores

        # a document literally containing "\x00stop" must treat it as a
        # phrase member (deg 4 for every word of the 4-token run), not a
        # delimiter
        sf = self._documents(tmp_path, ["alpha \x00stop beta gamma"])
        df = q_rake_word_scores(sf).to_pandas()
        assert len(df) == 4
        assert (df["deg"] == 4).all() and (df["freq"] == 1).all()
        assert "\x00stop" in set(df["word"])
