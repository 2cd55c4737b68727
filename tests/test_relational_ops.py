"""Hand-computed semantics pins for the round-3 relational additions:
MAD outlier detection, events-per-user histogram, cohort retention.

Each test builds a tiny engineered parquet directory so every number is
checkable by hand, and cross-checks the Ray result against the registered
DuckDB oracle on the same files (the sf0.001 sweep in test_queries_oracle
covers the generated corpus; these pin edge semantics: discrete-median tie
handling, the strict ``> 3*mad`` bound, null exclusion, month boundaries).
"""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from edge_deid_studio_ray.pipelines.queries import ORACLE_SQL, QUERIES


def _oracle(tmp_path, name: str, tables: list[str]):
    con = duckdb.connect()
    for t in tables:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')")
    return con.execute(ORACLE_SQL[name]).fetchall()


class TestEventsValueOutliers:
    def test_hand_computed_median_mad_and_strict_bound(self, ray_session, tmp_path):
        # type "a": values 1,1,1,1,100 -> median 1 (ceil(0.5*5)=3rd), devs
        # 0,0,0,0,99 -> mad 0, strict dev > 0 catches exactly the 99.
        # type "b": 1..5 -> median 3, devs sorted 0,1,1,2,2 -> mad 1,
        # 3*mad = 3, no dev exceeds 3 strictly -> 0 outliers.
        # type "c": a null value must drop from n_events and the histograms.
        events = pa.table(
            {
                "event_type": pa.array(["a"] * 5 + ["b"] * 5 + ["c"] * 3, pa.string()),
                "value": pa.array(
                    [1.0, 1.0, 1.0, 1.0, 100.0] + [1.0, 2.0, 3.0, 4.0, 5.0] + [7.0, None, 7.0],
                    pa.float64(),
                ),
            }
        )
        pq.write_table(events, tmp_path / "events.parquet")
        rows = {
            r["event_type"]: r
            for r in QUERIES["events_value_outliers"](str(tmp_path)).take_all()
        }
        assert rows["a"]["median"] == 1.0 and rows["a"]["mad"] == 0.0
        assert rows["a"]["n_outliers"] == 1 and rows["a"]["n_events"] == 5
        assert rows["b"]["median"] == 3.0 and rows["b"]["mad"] == 1.0
        assert rows["b"]["n_outliers"] == 0
        assert rows["c"]["n_events"] == 2 and rows["c"]["mad"] == 0.0

        oracle = {r[0]: r for r in _oracle(tmp_path, "events_value_outliers", ["events"])}
        for k, r in rows.items():
            assert (r["n_events"], r["median"], r["mad"], r["n_outliers"]) == (
                oracle[k][1],
                oracle[k][2],
                oracle[k][3],
                oracle[k][4],
            )

    def test_even_count_takes_lower_middle_element(self, ray_session, tmp_path):
        # quantile_disc(0.5) over an even count picks element ceil(0.5*n) —
        # the LOWER middle: median of 1,2,3,4 is 2, not 2.5.
        events = pa.table(
            {
                "event_type": pa.array(["e"] * 4, pa.string()),
                "value": pa.array([1.0, 2.0, 3.0, 4.0], pa.float64()),
            }
        )
        pq.write_table(events, tmp_path / "events.parquet")
        (row,) = QUERIES["events_value_outliers"](str(tmp_path)).take_all()
        assert row["median"] == 2.0
        (orow,) = _oracle(tmp_path, "events_value_outliers", ["events"])
        assert orow[2] == 2.0 and orow[3] == row["mad"]


class TestEventsPerUserHistogram:
    def test_hand_computed_distribution(self, ray_session, tmp_path):
        events = pa.table(
            {"user_id": pa.array([1, 1, 1, 2, 2, 3, 4, 4, 4], pa.int64())}
        )
        pq.write_table(events, tmp_path / "events.parquet")
        rows = {
            r["n_events"]: r["n_users"]
            for r in QUERIES["events_per_user_histogram"](str(tmp_path)).take_all()
        }
        assert rows == {3: 2, 2: 1, 1: 1}
        oracle = dict(_oracle(tmp_path, "events_per_user_histogram", ["events"]))
        assert rows == oracle

    def test_matches_brute_force_on_random_users(self, ray_session, tmp_path):
        rng = np.random.default_rng(7)
        users = rng.integers(0, 200, size=5000)
        pq.write_table(
            pa.table({"user_id": pa.array(users, pa.int64())}), tmp_path / "events.parquet"
        )
        rows = {
            r["n_events"]: r["n_users"]
            for r in QUERIES["events_per_user_histogram"](str(tmp_path)).take_all()
        }
        counts = np.bincount(users)
        counts = counts[counts > 0]
        brute: dict[int, int] = {}
        for c in counts:
            brute[int(c)] = brute.get(int(c), 0) + 1
        assert rows == brute


class TestCustomerOrderCohorts:
    def test_hand_built_retention_matrix(self, ray_session, tmp_path):
        us = lambda s: np.datetime64(s, "us")
        orders = pa.table(
            {
                "o_custkey": pa.array([1, 1, 1, 2, 2], pa.int64()),
                "o_orderdate": pa.array(
                    [
                        us("2024-01-05"),   # cust 1 cohort = 2024-01
                        us("2024-01-31"),   # same month, second order
                        us("2024-03-01"),   # retained in 2024-03
                        us("2024-03-15"),   # cust 2 cohort = 2024-03
                        us("2024-03-20"),
                    ],
                    pa.timestamp("us"),
                ),
            }
        )
        pq.write_table(orders, tmp_path / "orders.parquet")
        rows = {
            (r["cohort_month"], r["order_month"]): r
            for r in QUERIES["customer_order_cohorts"](str(tmp_path)).take_all()
        }
        assert rows[("2024-01", "2024-01")]["n_orders"] == 2
        assert rows[("2024-01", "2024-01")]["n_customers"] == 1
        assert rows[("2024-01", "2024-03")]["n_orders"] == 1
        assert rows[("2024-03", "2024-03")]["n_orders"] == 2
        assert rows[("2024-03", "2024-03")]["n_customers"] == 1
        assert len(rows) == 3

        oracle = {
            (r[0], r[1]): r
            for r in _oracle(tmp_path, "customer_order_cohorts", ["orders"])
        }
        assert set(oracle) == set(rows)
        for k, r in rows.items():
            assert (r["n_orders"], r["n_customers"]) == (oracle[k][2], oracle[k][3])

    def test_month_boundary_is_calendar_not_30_days(self, ray_session, tmp_path):
        # Jan 31 and Feb 1 are different months even though 1 day apart.
        us = lambda s: np.datetime64(s, "us")
        orders = pa.table(
            {
                "o_custkey": pa.array([9, 9], pa.int64()),
                "o_orderdate": pa.array(
                    [us("2024-01-31"), us("2024-02-01")], pa.timestamp("us")
                ),
            }
        )
        pq.write_table(orders, tmp_path / "orders.parquet")
        rows = {
            (r["cohort_month"], r["order_month"])
            for r in QUERIES["customer_order_cohorts"](str(tmp_path)).take_all()
        }
        assert rows == {("2024-01", "2024-01"), ("2024-01", "2024-02")}


def _ts(s: str):
    return np.datetime64(s, "us")


class TestShippingPriority:
    def _tables(self, tmp_path):
        # Customers: 1 BUILDING (kept), 2 AUTOMOBILE (dropped).
        pq.write_table(
            pa.table(
                {
                    "c_custkey": pa.array([1, 2], pa.int64()),
                    "c_mktsegment": pa.array(["BUILDING", "AUTOMOBILE"], pa.string()),
                }
            ),
            tmp_path / "customer.parquet",
        )
        # Orders: 10 qualifies; 11 too late (>= cutoff date); 12 wrong segment.
        pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array([10, 11, 12], pa.int64()),
                    "o_custkey": pa.array([1, 1, 2], pa.int64()),
                    "o_orderdate": pa.array(
                        [_ts("1995-03-01"), _ts("1995-03-15"), _ts("1995-03-01")],
                        pa.timestamp("us"),
                    ),
                    "o_orderpriority": pa.array(["1-URGENT", "2-HIGH", "3-MEDIUM"], pa.string()),
                }
            ),
            tmp_path / "orders.parquet",
        )
        # Lineitems: two qualifying rows on order 10 (revenue sums), one
        # shipped too early (dropped), one on the filtered orders.
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([10, 10, 10, 11], pa.int64()),
                    "l_extendedprice": pa.array([100.0, 50.0, 40.0, 99.0], pa.float64()),
                    "l_discount": pa.array([0.10, 0.00, 0.05, 0.01], pa.float64()),
                    "l_shipdate": pa.array(
                        [_ts("1995-04-01"), _ts("1995-05-01"), _ts("1995-03-15"), _ts("1995-04-01")],
                        pa.timestamp("us"),
                    ),
                }
            ),
            tmp_path / "lineitem.parquet",
        )

    def test_hand_computed_revenue_and_filters(self, ray_session, tmp_path):
        self._tables(tmp_path)
        rows = QUERIES["shipping_priority"](str(tmp_path)).take_all()
        assert len(rows) == 1
        r = rows[0]
        # 100.0 @ 10% -> 90.0, 50.0 @ 0% -> 50.0; the 40.0 row shipped ON
        # the cutoff (strict >) and must be excluded.
        assert r["l_orderkey"] == 10 and r["revenue"] == 140.0
        assert r["o_orderdate"] == "1995-03-01" and r["o_orderpriority"] == "1-URGENT"
        oracle = _oracle(tmp_path, "shipping_priority", ["customer", "orders", "lineitem"])
        assert [(r["l_orderkey"], r["o_orderdate"], r["o_orderpriority"], r["revenue"])] == oracle

    def test_top10_tie_break_is_orderkey_ascending(self, ray_session, tmp_path):
        # 12 orders with identical revenue: both engines must keep the 10
        # smallest orderkeys.
        n = 12
        pq.write_table(
            pa.table(
                {
                    "c_custkey": pa.array([1], pa.int64()),
                    "c_mktsegment": pa.array(["BUILDING"], pa.string()),
                }
            ),
            tmp_path / "customer.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array(list(range(n)), pa.int64()),
                    "o_custkey": pa.array([1] * n, pa.int64()),
                    "o_orderdate": pa.array([_ts("1995-01-01")] * n, pa.timestamp("us")),
                    "o_orderpriority": pa.array(["1-URGENT"] * n, pa.string()),
                }
            ),
            tmp_path / "orders.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array(list(range(n)), pa.int64()),
                    "l_extendedprice": pa.array([10.0] * n, pa.float64()),
                    "l_discount": pa.array([0.0] * n, pa.float64()),
                    "l_shipdate": pa.array([_ts("1995-06-01")] * n, pa.timestamp("us")),
                }
            ),
            tmp_path / "lineitem.parquet",
        )
        rows = QUERIES["shipping_priority"](str(tmp_path)).take_all()
        assert sorted(r["l_orderkey"] for r in rows) == list(range(10))
        oracle = _oracle(tmp_path, "shipping_priority", ["customer", "orders", "lineitem"])
        assert sorted(r[0] for r in oracle) == list(range(10))


class TestNationTradeFlow:
    def test_hand_computed_matrix(self, ray_session, tmp_path):
        pq.write_table(
            pa.table(
                {
                    "n_nationkey": pa.array([0, 1], pa.int32()),
                    "n_name": pa.array(["ALPHA", "BETA"], pa.string()),
                }
            ),
            tmp_path / "nation.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "s_suppkey": pa.array([100, 101], pa.int64()),
                    "s_nationkey": pa.array([0, 1], pa.int32()),
                }
            ),
            tmp_path / "supplier.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "c_custkey": pa.array([7], pa.int64()),
                    "c_nationkey": pa.array([1], pa.int32()),
                }
            ),
            tmp_path / "customer.parquet",
        )
        # 100 orders, so the order-key co-group folds many keys, not one
        n_orders = 100
        pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array(list(range(1, n_orders + 1)), pa.int64()),
                    "o_custkey": pa.array([7] * n_orders, pa.int64()),
                }
            ),
            tmp_path / "orders.parquet",
        )
        # Baseline: one ALPHA row per order at 10.0 net.  Order 1 adds the
        # hand-computed extras: 20.0 @ 10% (ALPHA), 5.0 @ 2% (BETA), and a
        # row outside the 1995-96 ship window (dropped).
        okeys = list(range(1, n_orders + 1)) + [1, 1, 1]
        skeys = [100] * n_orders + [100, 101, 100]
        price = [10.0] * n_orders + [20.0, 5.0, 1000.0]
        disc = [0.0] * n_orders + [0.10, 0.02, 0.0]
        ship = [_ts("1995-06-01")] * n_orders + [
            _ts("1996-12-31"),
            _ts("1995-01-01"),
            _ts("1997-01-01"),
        ]
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array(okeys, pa.int64()),
                    "l_suppkey": pa.array(skeys, pa.int64()),
                    "l_extendedprice": pa.array(price, pa.float64()),
                    "l_discount": pa.array(disc, pa.float64()),
                    "l_shipdate": pa.array(ship, pa.timestamp("us")),
                }
            ),
            tmp_path / "lineitem.parquet",
        )
        rows = {
            (r["supp_nation"], r["cust_nation"]): r
            for r in QUERIES["nation_trade_flow"](str(tmp_path)).take_all()
        }
        assert rows[("ALPHA", "BETA")]["revenue"] == 100 * 10.0 + 18.0  # 20*0.9
        assert rows[("ALPHA", "BETA")]["n_lineitems"] == n_orders + 1
        assert rows[("BETA", "BETA")]["revenue"] == 4.9    # 5*0.98
        assert len(rows) == 2
        oracle = {
            (r[0], r[1]): r
            for r in _oracle(
                tmp_path,
                "nation_trade_flow",
                ["nation", "supplier", "customer", "orders", "lineitem"],
            )
        }
        assert set(oracle) == set(rows)
        for k, r in rows.items():
            assert (r["n_lineitems"], r["revenue"]) == (oracle[k][2], oracle[k][3])


class TestDocCharsQuantileCont:
    def test_interpolation_matches_duckdb(self, ray_session, tmp_path):
        # lang "a": 1,2,3,4 -> q25 = 1 + 0.75*(2-1) = 1.75, q50 = 2.5,
        # q75 = 3.25.  lang "b": single value -> all quantiles equal it.
        docs = pa.table(
            {
                "lang": pa.array(["a"] * 4 + ["b"], pa.string()),
                "n_chars": pa.array([1, 2, 3, 4, 42], pa.int64()),
            }
        )
        pq.write_table(docs, tmp_path / "documents.parquet")
        rows = {
            r["lang"]: r for r in QUERIES["doc_chars_quantile_cont"](str(tmp_path)).take_all()
        }
        assert (rows["a"]["q25"], rows["a"]["q50"], rows["a"]["q75"]) == (1.75, 2.5, 3.25)
        assert (rows["b"]["q25"], rows["b"]["q50"], rows["b"]["q75"]) == (42.0, 42.0, 42.0)
        oracle = {r[0]: r for r in _oracle(tmp_path, "doc_chars_quantile_cont", ["documents"])}
        for k, r in rows.items():
            assert (r["n_docs"], r["q25"], r["q50"], r["q75"]) == tuple(oracle[k][1:])

    def test_exact_rank_has_zero_fraction(self, ray_session, tmp_path):
        # 5 values -> h = 0.25*4 = 1 exactly: q25 IS the second element,
        # no interpolation leakage from the neighbor.
        docs = pa.table(
            {
                "lang": pa.array(["x"] * 5, pa.string()),
                "n_chars": pa.array([10, 20, 30, 40, 1000], pa.int64()),
            }
        )
        pq.write_table(docs, tmp_path / "documents.parquet")
        (row,) = QUERIES["doc_chars_quantile_cont"](str(tmp_path)).take_all()
        assert row["q25"] == 20.0 and row["q50"] == 30.0 and row["q75"] == 40.0


class TestLineitemQtyDiscountCorr:
    def test_hand_computed_perfect_correlation(self, ray_session, tmp_path):
        # qty = 1,2,3 with discount = 0.01,0.02,0.03: corr exactly 1.0.
        # Flag "N" is anti-correlated: corr exactly -1.0.
        line = pa.table(
            {
                "l_returnflag": pa.array(["A"] * 3 + ["N"] * 3, pa.string()),
                "l_quantity": pa.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0], pa.float64()),
                "l_discount": pa.array([0.01, 0.02, 0.03, 0.03, 0.02, 0.01], pa.float64()),
            }
        )
        pq.write_table(line, tmp_path / "lineitem.parquet")
        rows = {
            r["l_returnflag"]: r
            for r in QUERIES["lineitem_qty_discount_corr"](str(tmp_path)).take_all()
        }
        # sqrt(vx)*sqrt(vy) is 1-ulp off the exact integer product, so the
        # perfect correlation lands 1 ulp from ±1.0 — on BOTH engines
        # identically (the bit-level match is the oracle assert below).
        assert rows["A"]["corr_qty_discount"] == pytest.approx(1.0)
        assert rows["N"]["corr_qty_discount"] == pytest.approx(-1.0)
        oracle = {
            r[0]: r for r in _oracle(tmp_path, "lineitem_qty_discount_corr", ["lineitem"])
        }
        for k, r in rows.items():
            assert (r["n_rows"], r["corr_qty_discount"]) == (oracle[k][1], oracle[k][2])

    def test_zero_variance_returns_null_both_sides(self, ray_session, tmp_path):
        line = pa.table(
            {
                "l_returnflag": pa.array(["Z"] * 3, pa.string()),
                "l_quantity": pa.array([5.0, 5.0, 5.0], pa.float64()),
                "l_discount": pa.array([0.01, 0.02, 0.03], pa.float64()),
            }
        )
        pq.write_table(line, tmp_path / "lineitem.parquet")
        (row,) = QUERIES["lineitem_qty_discount_corr"](str(tmp_path)).take_all()
        assert row["corr_qty_discount"] is None
        (orow,) = _oracle(tmp_path, "lineitem_qty_discount_corr", ["lineitem"])
        assert orow[2] is None

    def test_moment_bound_note_holds_at_documented_scale(self):
        # int64 headroom documented in the docstring: the final n*sxx
        # product caps the exact-int64 regime at ~6e7 rows per flag
        # (qty <= 50, discount-cents <= 10); beyond that both engines must
        # switch the closed form to HUGEINT/python-int.  The per-batch
        # partials themselves are never the binding constraint.
        n = 6 * 10**7
        sxx = n * 50 * 50
        assert n * sxx < 2**63
        n_over = 10**8
        assert n_over * (n_over * 50 * 50) >= 2**63  # the regime really ends
        batch_n = 65536
        assert batch_n * (batch_n * 50 * 50) < 2**63


class TestInvertedIndexPostings:
    def test_df_threshold_and_per_doc_dedup(self, ray_session, tmp_path):
        # "kept" appears in 5 docs (twice in doc 0 — must count once);
        # "dropped" in only 4 docs.
        texts = ["kept kept dropped", "kept dropped", "kept dropped", "kept dropped", "kept"]
        docs = pa.table(
            {
                "doc_id": pa.array(list(range(5)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(docs, tmp_path / "documents.parquet")
        rows = QUERIES["inverted_index_postings"](str(tmp_path)).take_all()
        assert len(rows) == 1
        r = rows[0]
        assert r["term"] == "kept" and r["df"] == 5
        import hashlib

        assert r["postings_md5"] == hashlib.md5(b"0,1,2,3,4").hexdigest()
        oracle = _oracle(tmp_path, "inverted_index_postings", ["documents"])
        assert [(r["term"], r["df"], r["postings_md5"])] == oracle


class TestDocPagerank:
    def test_regular_graph_reaches_uniform_fixpoint(self, ray_session, tmp_path):
        # Contiguous ids: the modular graph is 3-regular in AND out, so
        # uniform ranks stay uniform: inflow = 3*(1e6//3) = 999999,
        # r = 150000 + 85*999999//100 = 999999 for every node, every round.
        docs = pa.table({"doc_id": pa.array(list(range(6)), pa.int64())})
        pq.write_table(docs, tmp_path / "documents.parquet")
        rows = QUERIES["doc_pagerank"](str(tmp_path)).take_all()
        assert len(rows) == 6
        assert {r["rank_units"] for r in rows} == {999999}
        oracle = dict(_oracle(tmp_path, "doc_pagerank", ["documents"]))
        assert {r["doc_id"]: r["rank_units"] for r in rows} == oracle

    def test_non_contiguous_ids_drop_mass_identically(self, ray_session, tmp_path):
        # ids {0, 5}: dst = (src*7+k) % 2 targets id 1, which does not
        # exist — that mass is dropped on BOTH engines.  Hand-run:
        # round 1: inflow(0) = 333333 (self, k=2) + 2*333333 (from 5)
        #   -> r(0) = 150000 + 85*999999//100 = 999999;  r(5) = 150000.
        # round 2: c(0)=333333, c(5)=50000;
        #   inflow(0) = 333333 + 2*50000 = 433333
        #   -> r(0) = 150000 + 85*433333//100 = 518333;  r(5) = 150000.
        docs = pa.table({"doc_id": pa.array([0, 5], pa.int64())})
        pq.write_table(docs, tmp_path / "documents.parquet")
        rows = {r["doc_id"]: r["rank_units"] for r in QUERIES["doc_pagerank"](str(tmp_path)).take_all()}
        assert rows[5] == 150000
        oracle = dict(_oracle(tmp_path, "doc_pagerank", ["documents"]))
        assert rows == oracle

    def test_two_rounds_by_hand(self, ray_session, tmp_path):
        # Pin the exact floor-division arithmetic of the first two rounds
        # (values from the docstring walk-through above) by running the
        # oracle CTE chain truncated at r2.
        import duckdb

        from edge_deid_studio_ray.pipelines.queries import _pagerank_round_sql

        docs = pa.table({"doc_id": pa.array([0, 5], pa.int64())})
        pq.write_table(docs, tmp_path / "documents.parquet")
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
        )
        sql = (
            """
            WITH params AS (
                SELECT min(doc_id) AS m, CAST(count(*) AS BIGINT) AS n FROM documents
            ),
            nodes AS (SELECT doc_id AS node FROM documents),
            r0 AS (SELECT node, CAST(1000000 AS BIGINT) AS r FROM nodes),"""
            + ",".join(_pagerank_round_sql(i) for i in (1, 2))
            + " SELECT node, r FROM r2"
        )
        got = dict(con.execute(sql).fetchall())
        assert got == {0: 518333, 5: 150000}


class TestEventsInterarrivalHist:
    def test_hand_computed_gaps_and_tie_order(self, ray_session, tmp_path):
        # user 1: A@0s -> B@90s (gap 1 min, typed B) -> C@600s (gap 8 min).
        # user 2: single event, no gap.
        # user 3: W@40s -> X@100s (gap 1 min) -> Y@100s (ts tie: event_type
        #   tie-break puts X before Y, so Y gets gap 0).
        base = np.datetime64("2024-01-01T00:00:00", "us")
        s = lambda sec: base + np.timedelta64(sec * 1_000_000, "us")
        events = pa.table(
            {
                "user_id": pa.array([1, 1, 1, 2, 3, 3, 3], pa.int64()),
                "ts": pa.array(
                    [s(0), s(90), s(600), s(0), s(40), s(100), s(100)], pa.timestamp("us")
                ),
                "event_type": pa.array(["A", "B", "C", "Z", "W", "X", "Y"], pa.string()),
            }
        )
        pq.write_table(events, tmp_path / "events.parquet")
        rows = {
            (r["event_type"], r["gap_min"]): r["n_gaps"]
            for r in QUERIES["events_interarrival_hist"](str(tmp_path)).take_all()
        }
        assert rows == {("B", 1): 1, ("C", 8): 1, ("X", 1): 1, ("Y", 0): 1}
        oracle = {
            (r[0], r[1]): r[2]
            for r in _oracle(tmp_path, "events_interarrival_hist", ["events"])
        }
        assert rows == oracle


class TestNationCustomerFingerprint:
    def test_ordered_fold_matches_string_agg(self, ray_session, tmp_path):
        pq.write_table(
            pa.table(
                {
                    "n_nationkey": pa.array([0, 1], pa.int32()),
                    "n_name": pa.array(["ALPHA", "BETA"], pa.string()),
                }
            ),
            tmp_path / "nation.parquet",
        )
        # Names inserted out of order: the fingerprint must reflect the
        # SORTED list ("b" then "c" then "x").
        pq.write_table(
            pa.table(
                {
                    "c_nationkey": pa.array([0, 0, 0, 1], pa.int32()),
                    "c_name": pa.array(["x", "b", "c", "solo"], pa.string()),
                }
            ),
            tmp_path / "customer.parquet",
        )
        rows = {
            r["n_name"]: r
            for r in QUERIES["nation_customer_fingerprint"](str(tmp_path)).take_all()
        }
        import hashlib

        assert rows["ALPHA"]["n_customers"] == 3
        assert rows["ALPHA"]["names_md5"] == hashlib.md5(b"b,c,x").hexdigest()
        assert rows["BETA"]["names_md5"] == hashlib.md5(b"solo").hexdigest()
        oracle = {
            r[0]: r for r in _oracle(tmp_path, "nation_customer_fingerprint", ["nation", "customer"])
        }
        for k, r in rows.items():
            assert (r["n_customers"], r["names_md5"]) == (oracle[k][1], oracle[k][2])


class TestCorpusSnapshotDiff:
    def test_every_class_and_null_text(self, ray_session, tmp_path):
        # id 3 -> removed; id 4 -> modified (text||' v2'); id 5 -> unchanged
        # AND clones an added doc under id 2000005; id 6 -> unchanged;
        # id 10 has NULL text -> the engine hashes '' on both sides and the
        # oracle COALESCEs, so it must classify unchanged, not modified.
        docs = pa.table(
            {
                "doc_id": pa.array([3, 4, 5, 6, 10], pa.int64()),
                "text": pa.array(["gone", "old", "keep", "same", None], pa.string()),
            }
        )
        pq.write_table(docs, tmp_path / "documents.parquet")
        rows = {
            r["status"]: r
            for r in QUERIES["corpus_snapshot_diff"](str(tmp_path)).take_all()
        }
        assert rows["removed"]["n_docs"] == 1 and rows["removed"]["id_sum"] == 3
        assert rows["modified"]["n_docs"] == 1 and rows["modified"]["id_sum"] == 4
        assert rows["added"]["n_docs"] == 1 and rows["added"]["id_sum"] == 2000005
        assert rows["unchanged"]["n_docs"] == 3
        assert rows["unchanged"]["id_sum"] == 5 + 6 + 10
        oracle = {r[0]: r for r in _oracle(tmp_path, "corpus_snapshot_diff", ["documents"])}
        assert set(oracle) == set(rows)
        for k, r in rows.items():
            assert (r["n_docs"], r["id_sum"]) == (oracle[k][1], oracle[k][2])


class TestEventsLastPerUser:
    def test_ts_tie_breaks_to_max_event_id(self, ray_session, tmp_path):
        ts = pa.array(
            [
                np.datetime64("2024-01-01T00:00:00.000001", "us"),
                np.datetime64("2024-01-01T00:00:00.000001", "us"),
                np.datetime64("2024-01-01T00:00:00.000000", "us"),
                np.datetime64("2024-06-01T12:00:00.500000", "us"),
            ],
            pa.timestamp("us"),
        )
        events = pa.table(
            {
                "event_id": pa.array([7, 9, 8, 1], pa.int64()),
                "ts": ts,
                "user_id": pa.array([1, 1, 1, 2], pa.int64()),
                "event_type": pa.array(["a", "b", "c", "solo"], pa.string()),
                "value": pa.array([0.1, 0.25, 0.5, 1.75], pa.float64()),
            }
        )
        pq.write_table(events, tmp_path / "events.parquet")
        rows = QUERIES["events_last_per_user"](str(tmp_path)).take_all()
        assert [r["user_id"] for r in rows] == [1, 2]
        # user 1: two events share the max ts; event_id 9 must win.
        assert rows[0]["last_event_type"] == "b" and rows[0]["last_value"] == 0.25
        # exact epoch-us, sub-second preserved
        assert rows[1]["last_ts_us"] % 1_000_000 == 500_000
        oracle = _oracle(tmp_path, "events_last_per_user", ["events"])
        assert [(r["user_id"], r["last_ts_us"], r["last_event_type"], r["last_value"]) for r in rows] == [
            tuple(o) for o in oracle
        ]


class TestEventsUserTopType:
    def test_count_tie_breaks_to_lexicographic_min(self, ray_session, tmp_path):
        events = pa.table(
            {
                "user_id": pa.array([1, 1, 1, 1, 1, 2, 2, 2], pa.int64()),
                "event_type": pa.array(
                    ["b", "a", "b", "a", "c", "z", "z", "z"], pa.string()
                ),
            }
        )
        pq.write_table(events, tmp_path / "events.parquet")
        rows = QUERIES["events_user_top_type"](str(tmp_path)).take_all()
        # user 1: a and b both count 2 -> 'a' (lexicographic) wins
        assert [(r["user_id"], r["top_type"], r["n_events"]) for r in rows] == [
            (1, "a", 2),
            (2, "z", 3),
        ]
        oracle = _oracle(tmp_path, "events_user_top_type", ["events"])
        assert [(r["user_id"], r["top_type"], r["n_events"]) for r in rows] == [
            tuple(o) for o in oracle
        ]


class TestEventTypeCooccurrence:
    def test_distinct_per_user_and_pair_ordering(self, ray_session, tmp_path):
        # user 1 has types a,b,c (b repeated -> still one) = pairs
        # (a,b),(a,c),(b,c); user 2 has a,b -> (a,b); user 3 single type ->
        # no pairs.  (a,b) therefore counts 2 users.
        events = pa.table(
            {
                "user_id": pa.array([1, 1, 1, 1, 2, 2, 3], pa.int64()),
                "event_type": pa.array(["a", "b", "b", "c", "b", "a", "z"], pa.string()),
            }
        )
        pq.write_table(events, tmp_path / "events.parquet")
        rows = [
            (r["type_a"], r["type_b"], r["n_users"])
            for r in QUERIES["event_type_cooccurrence"](str(tmp_path)).take_all()
        ]
        assert rows == [("a", "b", 2), ("a", "c", 1), ("b", "c", 1)]
        oracle = _oracle(tmp_path, "event_type_cooccurrence", ["events"])
        assert rows == [tuple(o) for o in oracle]


class TestEventsValueQuantileSketch:
    def test_small_input_degenerates_to_exact_quantiles(self, ray_session, tmp_path):
        # n=10 <= k: the bottom-k sample IS the whole table, so the sketch
        # answer equals the exact discrete quantile: index ceil(q*n) 1-based
        # -> p50 = 5th smallest = 5.0, p90 = 9th = 9.0, p99 = 10th = 10.0.
        # A null value must drop from the sample entirely.
        events = pa.table(
            {
                "event_id": pa.array(list(range(10)) + [99], pa.int64()),
                "value": pa.array([float(v) for v in range(1, 11)] + [None], pa.float64()),
            }
        )
        pq.write_table(events, tmp_path / "events.parquet")
        rows = QUERIES["events_value_quantile_sketch"](str(tmp_path)).to_pylist()
        assert [(r["q"], r["sample_value"], r["n_sample"]) for r in rows] == [
            (0.5, 5.0, 10),
            (0.9, 9.0, 10),
            (0.99, 10.0, 10),
        ]
        oracle = _oracle(tmp_path, "events_value_quantile_sketch", ["events"])
        assert [(r["q"], r["sample_value"], r["n_sample"]) for r in rows] == [
            tuple(o) for o in oracle
        ]


class TestOrdersMonthlyRevenueGrowth:
    def test_lag_delta_and_first_month_null(self, ray_session, tmp_path):
        ts = pa.array(
            [
                np.datetime64("1995-01-05", "us"),
                np.datetime64("1995-01-20", "us"),
                np.datetime64("1995-02-01", "us"),
                np.datetime64("1995-04-10", "us"),  # gap month: no 1995-03 row
            ],
            pa.timestamp("us"),
        )
        orders = pa.table(
            {
                "o_orderdate": ts,
                "o_totalprice": pa.array([10.25, 4.75, 20.0, 1.0], pa.float64()),
            }
        )
        pq.write_table(orders, tmp_path / "orders.parquet")
        rows = QUERIES["orders_monthly_revenue_growth"](str(tmp_path)).to_pylist()
        assert [(r["o_month"], r["n_orders"], r["revenue"], r["delta_cents"]) for r in rows] == [
            ("1995-01", 2, 15.0, None),
            ("1995-02", 1, 20.0, 500),
            ("1995-04", 1, 1.0, -1900),  # LAG is over the series, not the calendar
        ]
        oracle = _oracle(tmp_path, "orders_monthly_revenue_growth", ["orders"])
        assert [(r["o_month"], r["n_orders"], r["revenue"], r["delta_cents"]) for r in rows] == [
            tuple(o) for o in oracle
        ]


class TestCustomerAcctbalQuartiles:
    def test_ntile_sizes_and_tie_straddle(self, ray_session, tmp_path):
        # n=6 -> NTILE(4) sizes 2,2,1,1.  Four customers share cents=100;
        # order within the tie is c_custkey, so the tie straddles quartiles
        # 1-3: q1={k1:50, k2:100}, q2={k3:100, k4:100}, q3={k5:100}, q4={k6:999}.
        customer = pa.table(
            {
                "c_custkey": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                "c_acctbal": pa.array([0.50, 1.0, 1.0, 1.0, 1.0, 9.99], pa.float64()),
            }
        )
        pq.write_table(customer, tmp_path / "customer.parquet")
        rows = [
            (r["quartile"], r["n_customers"], r["sum_cents"], r["min_cents"], r["max_cents"])
            for r in QUERIES["customer_acctbal_quartiles"](str(tmp_path)).take_all()
        ]
        assert rows == [
            (1, 2, 150, 50, 100),
            (2, 2, 200, 100, 100),
            (3, 1, 100, 100, 100),
            (4, 1, 999, 999, 999),
        ]
        oracle = _oracle(tmp_path, "customer_acctbal_quartiles", ["customer"])
        assert rows == [tuple(o) for o in oracle]


class TestEventsRolling7dUsers:
    def test_window_covers_present_days_only(self, ray_session, tmp_path):
        # users 1,2 active day 0; user 1 again day 8.  Present days: 0 and 8.
        # Day 0 window [d-6, d] sees both users -> 2.  Day 8 window [2..8]
        # sees only user 1's day-8 activity (day 0 is outside) -> 1.
        day = 86_400_000_000
        ts = pa.array(
            np.array([0, 0, 8 * day], dtype="datetime64[us]"), pa.timestamp("us")
        )
        events = pa.table(
            {
                "ts": ts,
                "user_id": pa.array([1, 2, 1], pa.int64()),
            }
        )
        pq.write_table(events, tmp_path / "events.parquet")
        rows = [
            (r["day_us"], r["n_users_7d"])
            for r in QUERIES["events_rolling_7d_users"](str(tmp_path)).take_all()
        ]
        assert rows == [(0, 2), (8 * day, 1)]
        oracle = _oracle(tmp_path, "events_rolling_7d_users", ["events"])
        assert rows == [tuple(o) for o in oracle]

    def test_user_counted_once_per_target_day(self, ray_session, tmp_path):
        # user 1 active on days 0 AND 1: day 1's window sees both activity
        # days but the user must count once.
        day = 86_400_000_000
        ts = pa.array(
            np.array([0, day, day], dtype="datetime64[us]"), pa.timestamp("us")
        )
        events = pa.table(
            {
                "ts": ts,
                "user_id": pa.array([1, 1, 2], pa.int64()),
            }
        )
        pq.write_table(events, tmp_path / "events.parquet")
        rows = [
            (r["day_us"], r["n_users_7d"])
            for r in QUERIES["events_rolling_7d_users"](str(tmp_path)).take_all()
        ]
        assert rows == [(0, 1), (day, 2)]
        oracle = _oracle(tmp_path, "events_rolling_7d_users", ["events"])
        assert rows == [tuple(o) for o in oracle]


class TestCustomerNameEditdistPairs:
    def test_substitution_indel_and_blocking_completeness(self, ray_session, tmp_path):
        # abc~abd (substitution), abc~abcd (insertion at end), abc~ab
        # (deletion), abcd~abd (deletion mid), xyz matches nothing;
        # duplicate name rows must not produce a self-pair.
        customer = pa.table(
            {
                "c_name": pa.array(
                    ["abc", "abd", "abcd", "ab", "xyz", "abc"], pa.string()
                ),
            }
        )
        pq.write_table(customer, tmp_path / "customer.parquet")
        rows = [
            (r["name_a"], r["name_b"])
            for r in QUERIES["customer_name_editdist_pairs"](str(tmp_path)).take_all()
        ]
        assert rows == [
            ("ab", "abc"),
            ("ab", "abd"),
            ("abc", "abcd"),
            ("abc", "abd"),
            ("abcd", "abd"),
        ]
        oracle = _oracle(tmp_path, "customer_name_editdist_pairs", ["customer"])
        assert rows == [tuple(o) for o in oracle]

    def test_lev_le1_kernel(self):
        from edge_deid_studio_ray.pipelines.queries import _lev_le1

        assert _lev_le1("a", "a") and _lev_le1("", "a") and _lev_le1("ab", "b")
        assert _lev_le1("kitten", "mitten") and not _lev_le1("kitten", "sitten_")
        assert not _lev_le1("abc", "cba") and not _lev_le1("ab", "ba_")
        assert _lev_le1("abcd", "acd") and not _lev_le1("abcd", "adbc")


class TestImportantParts:
    def test_strict_mean_relative_boundary(self, ray_session, tmp_path):
        # per-part units (cents, qty=1): 22, 21, 21, 16 -> total 80, n=4.
        # Threshold: units*4*20 > 21*80 i.e. units > 21. The two 21s sit
        # EXACTLY at 1.05x the mean and must be excluded (strict >).
        lineitem = pa.table(
            {
                "l_partkey": pa.array([1, 2, 3, 4], pa.int64()),
                "l_extendedprice": pa.array([0.22, 0.21, 0.21, 0.16], pa.float64()),
                "l_quantity": pa.array([1.0, 1.0, 1.0, 1.0], pa.float64()),
            }
        )
        pq.write_table(lineitem, tmp_path / "lineitem.parquet")
        rows = QUERIES["important_parts"](str(tmp_path)).take_all()
        assert [(r["l_partkey"], r["value"]) for r in rows] == [(1, 0.22)]
        oracle = _oracle(tmp_path, "important_parts", ["lineitem"])
        assert [tuple(o) for o in oracle] == [(1, 0.22)]

    def test_multi_row_parts_aggregate_before_threshold(self, ray_session, tmp_path):
        # part 1 = two rows of 10.00x2 -> units 2000*2*2; part 2 one small row.
        lineitem = pa.table(
            {
                "l_partkey": pa.array([1, 1, 2], pa.int64()),
                "l_extendedprice": pa.array([10.0, 10.0, 1.0], pa.float64()),
                "l_quantity": pa.array([2.0, 2.0, 1.0], pa.float64()),
            }
        )
        pq.write_table(lineitem, tmp_path / "lineitem.parquet")
        rows = QUERIES["important_parts"](str(tmp_path)).take_all()
        assert [(r["l_partkey"], r["value"]) for r in rows] == [(1, 40.0)]
        assert [tuple(o) for o in _oracle(tmp_path, "important_parts", ["lineitem"])] == [
            (1, 40.0)
        ]


class TestTopRevenueSuppliers:
    def test_argmax_ties_and_window_bounds(self, ray_session, tmp_path):
        # supp 1: one 10.00 disc 0 row in-window -> units 100000
        # supp 2: two 5.00 rows in-window -> tie at 100000 (both emitted)
        # supp 3: 20.00 row BEFORE the window; supp 4: ON the exclusive end
        ts = lambda s: np.datetime64(s, "us")
        lineitem = pa.table(
            {
                "l_suppkey": pa.array([1, 2, 2, 3, 4], pa.int64()),
                "l_shipdate": pa.array(
                    [
                        ts("1996-01-01T00:00:00"),  # inclusive start
                        ts("1996-02-01"),
                        ts("1996-03-31T23:59:59"),
                        ts("1995-12-31T23:59:59"),  # before window
                        ts("1996-04-01T00:00:00"),  # exclusive end
                    ],
                    pa.timestamp("us"),
                ),
                "l_extendedprice": pa.array([10.0, 5.0, 5.0, 20.0, 20.0], pa.float64()),
                "l_discount": pa.array([0.0] * 5, pa.float64()),
            }
        )
        supplier = pa.table(
            {
                "s_suppkey": pa.array([1, 2, 3, 4], pa.int64()),
                "s_name": pa.array(["s-one", "s-two", "s-three", "s-four"], pa.string()),
            }
        )
        pq.write_table(lineitem, tmp_path / "lineitem.parquet")
        pq.write_table(supplier, tmp_path / "supplier.parquet")
        rows = QUERIES["top_revenue_suppliers"](str(tmp_path)).take_all()
        got = [(r["s_suppkey"], r["s_name"], r["total_revenue"]) for r in rows]
        assert got == [(1, "s-one", 10.0), (2, "s-two", 10.0)]
        assert [tuple(o) for o in _oracle(tmp_path, "top_revenue_suppliers", ["lineitem", "supplier"])] == got

    def test_discount_enters_revenue(self, ray_session, tmp_path):
        # 10.00 at 10% discount (9000 units/cent) loses to 9.50 at 0%.
        lineitem = pa.table(
            {
                "l_suppkey": pa.array([1, 2], pa.int64()),
                "l_shipdate": pa.array(
                    [np.datetime64("1996-02-01", "us")] * 2, pa.timestamp("us")
                ),
                "l_extendedprice": pa.array([10.0, 9.5], pa.float64()),
                "l_discount": pa.array([0.10, 0.0], pa.float64()),
            }
        )
        supplier = pa.table(
            {
                "s_suppkey": pa.array([1, 2], pa.int64()),
                "s_name": pa.array(["a", "b"], pa.string()),
            }
        )
        pq.write_table(lineitem, tmp_path / "lineitem.parquet")
        pq.write_table(supplier, tmp_path / "supplier.parquet")
        rows = QUERIES["top_revenue_suppliers"](str(tmp_path)).take_all()
        assert [(r["s_suppkey"], r["total_revenue"]) for r in rows] == [(2, 9.5)]


class TestPartSupplierVariety:
    def test_distinct_pairs_and_brand_exclusion(self, ray_session, tmp_path):
        # (brand A, supp 1) appears twice -> counts once; part 4 is
        # Brand#13 -> excluded entirely; part 5 never shipped -> no row.
        part = pa.table(
            {
                "p_partkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "p_brand": pa.array(
                    ["Brand#1", "Brand#1", "Brand#2", "Brand#13", "Brand#3"], pa.string()
                ),
            }
        )
        lineitem = pa.table(
            {
                "l_partkey": pa.array([1, 1, 2, 3, 4], pa.int64()),
                "l_suppkey": pa.array([10, 10, 11, 10, 12], pa.int64()),
            }
        )
        pq.write_table(part, tmp_path / "part.parquet")
        pq.write_table(lineitem, tmp_path / "lineitem.parquet")
        rows = QUERIES["part_supplier_variety"](str(tmp_path)).take_all()
        got = [(r["p_brand"], r["supplier_cnt"]) for r in rows]
        assert got == [("Brand#1", 2), ("Brand#2", 1)]
        assert [tuple(o) for o in _oracle(tmp_path, "part_supplier_variety", ["lineitem", "part"])] == got


class TestLargeVolumeCustomers:
    def test_having_boundary_and_name_attach(self, ray_session, tmp_path):
        # order 100: qty 250 exactly -> excluded (strict >). order 200:
        # 125+126=251 -> included. order 300: no order row (orphan
        # lineitem) -> inner-join drops it.
        lineitem = pa.table(
            {
                "l_orderkey": pa.array([100, 200, 200, 300], pa.int64()),
                "l_quantity": pa.array([250.0, 125.0, 126.0, 999.0], pa.float64()),
            }
        )
        orders = pa.table(
            {
                "o_orderkey": pa.array([100, 200], pa.int64()),
                "o_custkey": pa.array([7, 8], pa.int64()),
                "o_orderdate": pa.array(
                    [np.datetime64("1995-01-02", "us"), np.datetime64("1996-07-04", "us")],
                    pa.timestamp("us"),
                ),
            }
        )
        customer = pa.table(
            {
                "c_custkey": pa.array([7, 8], pa.int64()),
                "c_name": pa.array(["cust-seven", "cust-eight"], pa.string()),
            }
        )
        pq.write_table(lineitem, tmp_path / "lineitem.parquet")
        pq.write_table(orders, tmp_path / "orders.parquet")
        pq.write_table(customer, tmp_path / "customer.parquet")
        rows = QUERIES["large_volume_customers"](str(tmp_path)).take_all()
        got = [
            (r["c_name"], r["c_custkey"], r["o_orderkey"], r["o_orderdate"], r["total_qty"])
            for r in rows
        ]
        assert got == [("cust-eight", 8, 200, "1996-07-04", 251)]
        assert [tuple(o) for o in _oracle(tmp_path, "large_volume_customers", ["lineitem", "orders", "customer"])] == got


class TestWealthyInactiveCustomers:
    def test_mean_boundary_and_high_value_anti_join(self, ray_session, tmp_path):
        # positive balances 10, 20, 30, 30, 30 -> mean 24. Customer 1 (10)
        # and 2 (20) below; 3/4/5 (30) above. Customer 3 has a HIGH-value
        # order -> excluded; customer 4 has only a low-value order ->
        # stays; customer 5 has no orders -> stays. Customer 6 (-5) is
        # excluded from the mean AND can never qualify.
        customer = pa.table(
            {
                "c_custkey": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                "c_nationkey": pa.array([0, 0, 1, 1, 2, 2], pa.int32()),
                "c_acctbal": pa.array([10.0, 20.0, 30.0, 30.0, 30.0, -5.0], pa.float64()),
            }
        )
        orders = pa.table(
            {
                "o_custkey": pa.array([3, 4], pa.int64()),
                "o_totalprice": pa.array([300000.01, 299999.99], pa.float64()),
            }
        )
        pq.write_table(customer, tmp_path / "customer.parquet")
        pq.write_table(orders, tmp_path / "orders.parquet")
        rows = QUERIES["wealthy_inactive_customers"](str(tmp_path)).take_all()
        got = [(r["c_nationkey"], r["numcust"], r["totacctbal"]) for r in rows]
        assert got == [(1, 1, 30.0), (2, 1, 30.0)]
        assert [tuple(o) for o in _oracle(tmp_path, "wealthy_inactive_customers", ["customer", "orders"])] == got

    def test_exactly_at_mean_excluded(self, ray_session, tmp_path):
        # all equal balances -> everyone AT the mean -> empty result is
        # impossible to hash-check, so add one strictly-above row.
        customer = pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], pa.int64()),
                "c_nationkey": pa.array([0, 0, 1], pa.int32()),
                "c_acctbal": pa.array([10.0, 10.0, 10.03], pa.float64()),
            }
        )
        orders = pa.table(
            {
                "o_custkey": pa.array([], pa.int64()),
                "o_totalprice": pa.array([], pa.float64()),
            }
        )
        pq.write_table(customer, tmp_path / "customer.parquet")
        pq.write_table(orders, tmp_path / "orders.parquet")
        rows = QUERIES["wealthy_inactive_customers"](str(tmp_path)).take_all()
        assert [(r["c_nationkey"], r["numcust"], r["totacctbal"]) for r in rows] == [
            (1, 1, 10.03)
        ]


class TestBm25Top20:
    def test_tf_saturation_and_length_normalization(self, ray_session, tmp_path):
        # doc 1: all three terms once, short -> top. doc 2: same tf but
        # padded 3x longer -> length normalization ranks it below doc 1.
        # doc 3: 'spark' five times (saturating tf) -> beats doc 4's one
        # 'spark' but NOT doc 1's three distinct terms. doc 5: no terms ->
        # score 0, still emitted (top-20 over 5 docs), last by doc_id tie
        # with nothing.
        pad = "x " * 20
        documents = pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(
                    [
                        "spark merge window",
                        "spark merge window " + pad.strip(),
                        "spark spark spark spark spark",
                        "spark alone here",
                        "nothing relevant",
                    ],
                    pa.string(),
                ),
            }
        )
        pq.write_table(documents, tmp_path / "documents.parquet")
        rows = QUERIES["bm25_top20"](str(tmp_path)).take_all()
        ids = [r["doc_id"] for r in rows]
        scores = {r["doc_id"]: r["bm25"] for r in rows}
        assert len(rows) == 5
        assert ids[0] == 1 and scores[1] > scores[2]          # shorter wins
        assert scores[1] > scores[3] > scores[4] > scores[5]  # coverage > saturation > single > none
        assert scores[5] == 0.0
        oracle = _oracle(tmp_path, "bm25_top20", ["documents"])
        assert [(r["doc_id"], r["bm25"]) for r in rows] == [tuple(o) for o in oracle]


class TestDsirImportanceWeights:
    def test_in_domain_scores_above_out_of_domain(self, ray_session, tmp_path):
        # target LM trains on the 'en' slice ("aaaaa" trigrams); docs made
        # of 'a' trigrams must out-weigh docs of 'z' trigrams (which take
        # the target add-one floor but are common in the raw LM).  A
        # sub-trigram doc (2 chars) is excluded on both engines.
        documents = pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "lang": pa.array(["en", "en", "zh", "zh"], pa.string()),
                "text": pa.array(["aaaaa", "aaaa", "zzzzz", "zz"], pa.string()),
            }
        )
        pq.write_table(documents, tmp_path / "documents.parquet")
        rows = {r["doc_id"]: r for r in QUERIES["dsir_importance_weights"](str(tmp_path)).take_all()}
        assert set(rows) == {1, 2, 3}          # doc 4 sub-trigram -> excluded
        assert rows[1]["n_tri"] == 3 and rows[2]["n_tri"] == 2
        assert rows[1]["log_weight"] > rows[3]["log_weight"]
        assert rows[2]["log_weight"] > rows[3]["log_weight"]
        oracle = {o[0]: o for o in _oracle(tmp_path, "dsir_importance_weights", ["documents"])}
        for d, r in rows.items():
            assert (r["n_tri"], r["log_weight"]) == (oracle[d][1], oracle[d][2])


class TestDocCharEntropy:
    def test_hand_computed_entropies(self, ray_session, tmp_path):
        import math

        # "aaaa" -> 0 nats; "ab" -> ln 2; "abcd" -> ln 4; "" excluded;
        # null excluded.
        documents = pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(["aaaa", "ab", "abcd", "", None], pa.string()),
            }
        )
        pq.write_table(documents, tmp_path / "documents.parquet")
        rows = {r["doc_id"]: r for r in QUERIES["doc_char_entropy"](str(tmp_path)).take_all()}
        assert set(rows) == {1, 2, 3}
        assert rows[1]["entropy"] == 0.0 and rows[1]["n_chars"] == 4
        assert rows[2]["entropy"] == round(math.log(2), 6)
        assert rows[3]["entropy"] == round(math.log(4), 6)
        oracle = {o[0]: o for o in _oracle(tmp_path, "doc_char_entropy", ["documents"])}
        for d, r in rows.items():
            assert (r["n_chars"], r["entropy"]) == (oracle[d][1], oracle[d][2])


class TestWeightedSampleTop50:
    def test_weight_zero_excluded_and_key_formula(self, ray_session, tmp_path):
        import math

        from edge_deid_studio_ray.functions.corpusops import md5_uniform

        documents = pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "n_chars": pa.array([100, 1, 0, 50], pa.int64()),
            }
        )
        pq.write_table(documents, tmp_path / "documents.parquet")
        rows = QUERIES["weighted_sample_top50"](str(tmp_path)).take_all()
        ids = [r["doc_id"] for r in rows]
        assert 3 not in ids and len(rows) == 3
        expect = {
            d: round(-math.log(md5_uniform(d)) / w, 6) for d, w in [(1, 100), (2, 1), (4, 50)]
        }
        for r in rows:
            assert r["es_key"] == expect[r["doc_id"]]
        # ascending key order (bottom-k = the sample)
        keys = [r["es_key"] for r in rows]
        assert keys == sorted(keys)
        oracle = _oracle(tmp_path, "weighted_sample_top50", ["documents"])
        assert [(r["doc_id"], r["n_chars"], r["es_key"]) for r in rows] == [
            tuple(o) for o in oracle
        ]

    def test_heavier_weights_oversampled(self, ray_session, tmp_path):
        # 400 docs, half weight 1000, half weight 1: the heavy half must
        # dominate the top-50 (statistical, deterministic given md5 keys).
        n = 400
        documents = pa.table(
            {
                "doc_id": pa.array(list(range(n)), pa.int64()),
                "n_chars": pa.array([1000 if d % 2 == 0 else 1 for d in range(n)], pa.int64()),
            }
        )
        pq.write_table(documents, tmp_path / "documents.parquet")
        rows = QUERIES["weighted_sample_top50"](str(tmp_path)).take_all()
        assert len(rows) == 50
        heavy = sum(1 for r in rows if r["n_chars"] == 1000)
        assert heavy >= 45


class TestDocPercentRank:
    def test_ties_and_single_row_group(self, ray_session, tmp_path):
        # lang a: values 10,10,20,30 -> pr 0,0,2/3,1. lang b: single row -> 0.
        documents = pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "lang": pa.array(["a", "a", "a", "a", "b"], pa.string()),
                "n_chars": pa.array([10, 10, 20, 30, 7], pa.int64()),
            }
        )
        pq.write_table(documents, tmp_path / "documents.parquet")
        rows = {r["doc_id"]: r["pr"] for r in QUERIES["doc_percent_rank"](str(tmp_path)).take_all()}
        assert rows == {1: 0.0, 2: 0.0, 3: 2 / 3, 4: 1.0, 5: 0.0}
        oracle = {o[0]: o[3] for o in _oracle(tmp_path, "doc_percent_rank", ["documents"])}
        assert rows == oracle


class TestKnnMmrRerank:
    def test_diversity_beats_redundancy(self, ray_session, tmp_path):
        # Query = vec 0 ([1,0]). vecs 1/2 are a near-duplicate pair hugging
        # the query (mutual cosine > either's relevance); vec 3 sits at
        # -45 degrees, so its sim to the selected cluster is BELOW its
        # relevance. After s1 = the query itself and s2 = vec 1 (rank-2
        # scores all tie at 0; vec_id breaks), MMR must prefer the diverse
        # vec 3 (positive margin rel - maxsim) over the redundant vec 2
        # (negative margin) at rank 3.
        vecs = {
            0: [1.0, 0.0],
            1: [0.999, 0.01],
            2: [0.998, 0.012],
            3: [0.707, -0.707],
        }
        embeddings = pa.table(
            {
                "vec_id": pa.array(sorted(vecs), pa.int64()),
                "embedding": pa.array(
                    [vecs[k] for k in sorted(vecs)], pa.list_(pa.float32())
                ),
                "label": pa.array([0] * len(vecs), pa.int32()),
            }
        )
        pq.write_table(embeddings, tmp_path / "embeddings.parquet")
        rows = QUERIES["knn_mmr_rerank"](str(tmp_path))
        got = {(r["query_id"], r["rank"]): r["vec_id"] for r in rows.to_pylist()}
        assert got[(0, 1)] == 0 and got[(0, 2)] == 1
        assert got[(0, 3)] == 3          # diversity beats the near-duplicate
        assert got[(0, 4)] == 2
        oracle = _oracle(tmp_path, "knn_mmr_rerank", ["embeddings"])
        assert sorted(rows.to_pylist(), key=lambda r: (r["query_id"], r["rank"])) == [
            {"query_id": o[0], "rank": o[1], "vec_id": o[2]} for o in oracle
        ]


class TestNationCustomerSupplierOuter:
    def test_one_sided_rows_survive(self, ray_session, tmp_path):
        # nation 1: customers only; nation 2: both; nation 3: suppliers only
        customer = pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], pa.int64()),
                "c_nationkey": pa.array([1, 1, 2], pa.int32()),
            }
        )
        supplier = pa.table(
            {
                "s_suppkey": pa.array([10, 11], pa.int64()),
                "s_nationkey": pa.array([2, 3], pa.int32()),
            }
        )
        pq.write_table(customer, tmp_path / "customer.parquet")
        pq.write_table(supplier, tmp_path / "supplier.parquet")
        rows = [
            (r["nationkey"], r["n_customers"], r["n_suppliers"])
            for r in QUERIES["nation_customer_supplier_outer"](str(tmp_path)).take_all()
        ]
        assert rows == [(1, 2, 0), (2, 1, 1), (3, 0, 1)]
        assert rows == [tuple(o) for o in _oracle(tmp_path, "nation_customer_supplier_outer", ["customer", "supplier"])]


class TestEventsValueWinsorBounds:
    def test_hand_computed_bounds_and_clip_counts(self, ray_session, tmp_path):
        # 20 values 1..20 for type a: quantile_disc(.05) = ceil(.05*20)=1st
        # -> 1.0; p95 = ceil(.95*20)=19th -> 19.0; below 1.0: none;
        # above 19.0: just 20.0. Nulls dropped.
        events = pa.table(
            {
                "event_type": pa.array(["a"] * 20 + ["b"] * 2, pa.string()),
                "value": pa.array([float(i) for i in range(1, 21)] + [5.0, None], pa.float64()),
            }
        )
        pq.write_table(events, tmp_path / "events.parquet")
        rows = {r["event_type"]: r for r in QUERIES["events_value_winsor_bounds"](str(tmp_path)).take_all()}
        a = rows["a"]
        assert (a["n_events"], a["p05"], a["p95"], a["n_below"], a["n_above"]) == (20, 1.0, 19.0, 0, 1)
        b = rows["b"]
        assert (b["n_events"], b["p05"], b["p95"], b["n_below"], b["n_above"]) == (1, 5.0, 5.0, 0, 0)
        oracle = {o[0]: o for o in _oracle(tmp_path, "events_value_winsor_bounds", ["events"])}
        for k, r in rows.items():
            assert (r["n_events"], r["p05"], r["p95"], r["n_below"], r["n_above"]) == tuple(oracle[k][1:])


class TestEventsTypeTransitions:
    def test_hand_computed_transitions_and_tie_order(self, ray_session, tmp_path):
        import numpy as np

        ts = lambda s: np.datetime64(s, "us")
        # user 1: a->b->b ; user 2: b->a ; user 3: single event (no rows).
        # user 4: two events at the SAME timestamp -> event_id breaks the
        # tie (id 40 before id 41): c->d, never d->c.
        events = pa.table(
            {
                "event_id": pa.array([10, 11, 12, 20, 21, 30, 41, 40], pa.int64()),
                "ts": pa.array(
                    [
                        ts("2026-01-01T00:00:00"),
                        ts("2026-01-01T00:01:00"),
                        ts("2026-01-01T00:02:00"),
                        ts("2026-01-01T05:00:00"),
                        ts("2026-01-01T05:01:00"),
                        ts("2026-01-02T00:00:00"),
                        ts("2026-01-03T00:00:00"),
                        ts("2026-01-03T00:00:00"),
                    ],
                    pa.timestamp("us"),
                ),
                "user_id": pa.array([1, 1, 1, 2, 2, 3, 4, 4], pa.int64()),
                "event_type": pa.array(["a", "b", "b", "b", "a", "x", "d", "c"], pa.string()),
            }
        )
        pq.write_table(events, tmp_path / "events.parquet")
        rows = [
            (r["from_type"], r["to_type"], r["n_transitions"])
            for r in QUERIES["events_type_transitions"](str(tmp_path)).take_all()
        ]
        assert rows == [("a", "b", 1), ("b", "a", 1), ("b", "b", 1), ("c", "d", 1)]
        assert rows == [tuple(o) for o in _oracle(tmp_path, "events_type_transitions", ["events"])]


class TestPartSkyline:
    def test_dominance_duplicates_and_ties(self, ray_session, tmp_path):
        # (10, 5) dominates (10, 4) [tie in price, strict in size] and
        # (9, 5) [strict price, tie size]. Duplicates (10, 5) never
        # dominate each other -> both on the frontier. (8, 9) survives on
        # the size axis; (8, 8) is dominated by it.
        part = pa.table(
            {
                "p_partkey": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                "p_retailprice": pa.array([10.0, 10.0, 10.0, 9.0, 8.0, 8.0], pa.float64()),
                "p_size": pa.array([5, 5, 4, 5, 9, 8], pa.int32()),
            }
        )
        pq.write_table(part, tmp_path / "part.parquet")
        rows = [
            (r["p_partkey"], r["p_retailprice"], r["p_size"])
            for r in QUERIES["part_skyline"](str(tmp_path)).take_all()
        ]
        assert rows == [(1, 10.0, 5), (2, 10.0, 5), (5, 8.0, 9)]
        assert rows == [tuple(o) for o in _oracle(tmp_path, "part_skyline", ["part"])]

    def test_local_prune_matches_bruteforce(self, ray_session, tmp_path):
        # 300 deterministic pseudo-random points across multiple batches:
        # the two-level skyline must equal the O(n^2) brute force.
        import hashlib

        def h(i, salt):
            return int(hashlib.md5(f"{salt}:{i}".encode()).hexdigest()[:6], 16)

        n = 300
        prices = [float(h(i, "p") % 1000) / 10.0 for i in range(n)]
        sizes = [h(i, "s") % 50 for i in range(n)]
        part = pa.table(
            {
                "p_partkey": pa.array(list(range(n)), pa.int64()),
                "p_retailprice": pa.array(prices, pa.float64()),
                "p_size": pa.array(sizes, pa.int32()),
            }
        )
        pq.write_table(part, tmp_path / "part.parquet")
        got = [
            (r["p_partkey"], r["p_retailprice"], r["p_size"])
            for r in QUERIES["part_skyline"](str(tmp_path)).take_all()
        ]
        brute = sorted(
            (k, p, s)
            for k, p, s in zip(range(n), prices, sizes)
            if not any(
                (p2 >= p and s2 >= s and (p2 > p or s2 > s))
                for p2, s2 in zip(prices, sizes)
            )
        )
        assert got == brute
