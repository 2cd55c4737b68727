"""Hand-computed semantics pins for the curation-layer batch: C4-style
blocklist dictionary tagging, Flesch readability, prototype-distance
(label-centroid) outlier pruning, and association-rule lift.

Each test builds a tiny engineered parquet directory so every number is
checkable by hand, and cross-checks the Ray result against the registered
DuckDB oracle on the same files.  The sf0.001/0.01 sweeps cover the
generated corpus; these pin the edge semantics: case folding and leftmost
non-overlapping multi-word counts (blocklist), the syllable/sentence floors
and the exact float expression (Flesch), the (cos6, vec_id) ranking
contract (centroid outliers), and the distinct-basket projection + exact
int64 lift products (affinity)."""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq

from edge_deid_studio_ray.pipelines import queries
from edge_deid_studio_ray.pipelines.queries import ORACLE_SQL, QUERIES


def _oracle(tmp_path, name: str, tables: list[str]):
    con = duckdb.connect()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')"
        )
    return con.execute(ORACLE_SQL[name]).fetchall()


class TestBlocklistTermStats:
    def test_case_fold_overlap_and_substring_semantics(self, ray_session, tmp_path):
        docs = [
            # case folding: all three count; "Spark" twice in one doc
            "Spark SPARK loves spark",
            # multi-word non-overlap: "batch batch batch" has ONE
            # "batch batch" (leftmost non-overlapping, Python str.count)
            "batch batch batch",
            # substring (not token) semantics: "dedup" contains "dup"
            "dedup dedup",
            "nothing matching at all",
        ]
        pq.write_table(
            pa.table({"text": pa.array(docs, pa.string())}),
            tmp_path / "documents.parquet",
        )
        rows = {
            r["term"]: (r["n_docs"], r["n_occurrences"])
            for r in QUERIES["blocklist_term_stats"](str(tmp_path)).take_all()
        }
        assert rows["spark"] == (1, 3)
        assert rows["batch batch"] == (1, 1)
        assert rows["dup"] == (1, 2)
        assert rows["noise"] == (0, 0)
        oracle = {t: (d, o) for t, d, o in _oracle(tmp_path, "blocklist_term_stats", ["documents"])}
        assert oracle == rows

    def test_null_text_counts_nothing(self, ray_session, tmp_path):
        pq.write_table(
            pa.table({"text": pa.array(["spark", None], pa.string())}),
            tmp_path / "documents.parquet",
        )
        rows = {
            r["term"]: (r["n_docs"], r["n_occurrences"])
            for r in QUERIES["blocklist_term_stats"](str(tmp_path)).take_all()
        }
        assert rows["spark"] == (1, 1)
        assert rows["scan"] == (0, 0)


class TestDocReadability:
    def test_hand_computed_flesch(self, ray_session, tmp_path):
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": pa.array(
                        [
                            # 5 words, syllables 2+1+1+1+2 = 7, 2 sentence runs
                            "Hello world. This is fine!",
                            # no vowels → 1 syllable per word floor; no
                            # punctuation → sentence floor of 1
                            "xyz zz",
                            # CJK words carry no [aeiouy] → floor of 1 each
                            "你好 世界",
                            # zero words → excluded on both engines
                            "",
                        ],
                        pa.string(),
                    ),
                }
            ),
            tmp_path / "documents.parquet",
        )
        rows = {
            r["doc_id"]: r
            for r in QUERIES["doc_readability"](str(tmp_path)).take_all()
        }
        assert set(rows) == {1, 2, 3}
        r1 = rows[1]
        assert (r1["n_words"], r1["n_sentences"], r1["n_syllables"]) == (5, 2, 7)
        assert r1["flesch"] == round(206.835 - 1.015 * (5 / 2) - 84.6 * (7 / 5), 6)
        assert (rows[2]["n_syllables"], rows[2]["n_sentences"]) == (2, 1)
        assert (rows[3]["n_words"], rows[3]["n_syllables"]) == (2, 2)
        oracle = {
            r[0]: r for r in _oracle(tmp_path, "doc_readability", ["documents"])
        }
        assert set(oracle) == {1, 2, 3}
        for d in (1, 2, 3):
            assert oracle[d] == (
                rows[d]["doc_id"],
                rows[d]["n_words"],
                rows[d]["n_sentences"],
                rows[d]["n_syllables"],
                rows[d]["flesch"],
            )


class TestLabelCentroidOutliers:
    def test_hand_computed_cosines_and_rank_order(self, ray_session, tmp_path):
        # label 0 centroid-sum = [2, 2]; cos([1,0]) = cos([0,1]) = 0.707107,
        # cos([1,1]) = 1.0 → bottom order (cos6, vec_id): 10, 11, 12
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array([10, 11, 12, 20], pa.int64()),
                    "embedding": pa.array(
                        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [3.0, 4.0]],
                        pa.list_(pa.float32()),
                    ),
                    "label": pa.array([0, 0, 0, 1], pa.int32()),
                }
            ),
            tmp_path / "embeddings.parquet",
        )
        out = QUERIES["label_centroid_outliers"](str(tmp_path)).take_all()
        rows = [(r["label"], r["vec_id"], r["cos_centroid"]) for r in out]
        rows.sort()
        assert rows == [
            (0, 10, 0.707107),
            (0, 11, 0.707107),
            (0, 12, 1.0),
            (1, 20, 1.0),
        ]
        assert sorted(_oracle(tmp_path, "label_centroid_outliers", ["embeddings"])) == rows

    def test_bottom5_prune_is_lossless(self, ray_session, tmp_path):
        # 8 vectors on one label with strictly increasing alignment to the
        # centroid direction — only the 5 least aligned survive
        vecs = [[1.0, float(i)] for i in range(8)]
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(list(range(8)), pa.int64()),
                    "embedding": pa.array(vecs, pa.list_(pa.float32())),
                    "label": pa.array([0] * 8, pa.int32()),
                }
            ),
            tmp_path / "embeddings.parquet",
        )
        out = QUERIES["label_centroid_outliers"](str(tmp_path)).take_all()
        assert len(out) == 5
        assert sorted(
            [(r["label"], r["vec_id"], r["cos_centroid"]) for r in out]
        ) == sorted(_oracle(tmp_path, "label_centroid_outliers", ["embeddings"]))


class TestPartAffinityLift:
    def test_distinct_projection_and_exact_lift(self, ray_session, tmp_path):
        # order 1: {1,2,3} (part 1 listed twice → distinct), order 2: {1,2},
        # order 3: {1,4}.  N=3; parts 1→3, 2→2, 3→1, 4→1.
        # pairs (1,2):2 lift 2·3/(3·2)=1.0, (1,3):1 lift 1.0, (2,3):1 lift
        # 1.5, (1,4):1 lift 1.0
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 1, 1, 1, 2, 2, 3, 3], pa.int64()),
                    "l_partkey": pa.array([1, 1, 2, 3, 1, 2, 1, 4], pa.int64()),
                }
            ),
            tmp_path / "lineitem.parquet",
        )
        out = QUERIES["part_affinity_lift"](str(tmp_path)).to_pylist()
        rows = {(r["p1"], r["p2"]): (r["n_orders"], r["lift"]) for r in out}
        assert rows == {
            (1, 2): (2, 1.0),
            (1, 3): (1, 1.0),
            (2, 3): (1, 1.5),
            (1, 4): (1, 1.0),
        }
        oracle = {
            (p1, p2): (n, lift)
            for p1, p2, n, lift in _oracle(tmp_path, "part_affinity_lift", ["lineitem"])
        }
        assert oracle == rows


class TestMinhashEstimateError:
    def test_signature_and_exact_jaccard_pins(self, ray_session, tmp_path):
        import hashlib

        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": pa.array(
                        [
                            "a b c d",  # grams {a b c, b c d}; +appended adds 1
                            "",  # empty vs {"appended"} → est 0, exact 0
                            "hi",  # {"hi"} vs {"hi appended"} → 0
                        ],
                        pa.string(),
                    ),
                }
            ),
            tmp_path / "documents.parquet",
        )
        rows = {
            r["left"]: r
            for r in QUERIES["minhash_estimate_error"](str(tmp_path)).take_all()
        }
        assert rows[1]["ngram_jaccard"] == 2 / 3

        # independent recompute of the doc-1 estimate via the md5 bridge
        def h(i, g):
            return int.from_bytes(
                hashlib.md5(f"{i}|{g}".encode()).digest()[:8], "little"
            )

        ga = {"a b c", "b c d"}
        gb = {"a b c", "b c d", "c d appended"}
        eq = sum(
            1
            for i in range(16)
            if min(h(i, g) for g in ga) == min(h(i, g) for g in gb)
        )
        assert rows[1]["est_jaccard"] == eq / 16
        assert rows[1]["abs_err"] == abs(eq / 16 - 2 / 3)
        assert (rows[2]["est_jaccard"], rows[2]["ngram_jaccard"]) == (0.0, 0.0)
        assert (rows[3]["est_jaccard"], rows[3]["ngram_jaccard"]) == (0.0, 0.0)
        oracle = {
            r[0]: r
            for r in _oracle(tmp_path, "minhash_estimate_error", ["documents"])
        }
        for d in (1, 2, 3):
            assert oracle[d] == (
                rows[d]["left"],
                rows[d]["right"],
                rows[d]["ngram_jaccard"],
                rows[d]["est_jaccard"],
                rows[d]["abs_err"],
            )


class TestDocContainment:
    def test_half_in_full_and_edge_cases(self, ray_session, tmp_path):
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": pa.array(
                        [
                            # len 11 → half "a b c": gram {a b c} ⊆ full grams
                            "a b c d e f",
                            # half "ab cd" (2 words → joined gram) not a full
                            # trigram → 0.0
                            "ab cd ef gh",
                            # empty → vacuous containment 1.0
                            "",
                        ],
                        pa.string(),
                    ),
                }
            ),
            tmp_path / "documents.parquet",
        )
        rows = {
            r["right"]: r["containment"]
            for r in QUERIES["doc_containment"](str(tmp_path)).take_all()
        }
        assert rows == {1: 1.0, 2: 0.0, 3: 1.0}
        oracle = {
            r[1]: r[2] for r in _oracle(tmp_path, "doc_containment", ["documents"])
        }
        assert oracle == rows


def _ts_us(seconds: int):
    import numpy as np

    return np.datetime64(seconds, "s").astype("datetime64[us]")


class TestEventsPathTrigrams:
    def test_paths_and_total_order_contract(self, ray_session, tmp_path):
        # user 1: A,B,A,C → A>B>A, B>A>C; user 2: only 2 events → none.
        # events 3/4 share a timestamp → event_id breaks the tie.
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                    "ts": pa.array(
                        [_ts_us(s) for s in (10, 20, 30, 30, 10, 20)],
                        pa.timestamp("us"),
                    ),
                    "user_id": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
                    "event_type": pa.array(
                        ["A", "B", "A", "C", "X", "Y"], pa.string()
                    ),
                }
            ),
            tmp_path / "events.parquet",
        )
        out = {
            r["path"]: r["n_paths"]
            for r in QUERIES["events_path_trigrams"](str(tmp_path)).take_all()
        }
        assert out == {"A>B>A": 1, "B>A>C": 1}
        assert dict(_oracle(tmp_path, "events_path_trigrams", ["events"])) == out


class TestReferentialOrphans:
    def test_orphans_counted_per_edge(self, ray_session, tmp_path):
        pq.write_table(
            pa.table({"r_regionkey": pa.array([0], pa.int64())}),
            tmp_path / "region.parquet",
        )
        # nation 1 points at region 99 (orphan)
        pq.write_table(
            pa.table(
                {
                    "n_nationkey": pa.array([0, 1], pa.int64()),
                    "n_regionkey": pa.array([0, 99], pa.int64()),
                }
            ),
            tmp_path / "nation.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "c_custkey": pa.array([1], pa.int64()),
                    "c_nationkey": pa.array([0], pa.int64()),
                }
            ),
            tmp_path / "customer.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "s_suppkey": pa.array([1], pa.int64()),
                    "s_nationkey": pa.array([0], pa.int64()),
                }
            ),
            tmp_path / "supplier.parquet",
        )
        pq.write_table(
            pa.table({"p_partkey": pa.array([1], pa.int64())}),
            tmp_path / "part.parquet",
        )
        # order 2 points at customer 99 (orphan)
        pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array([1, 2], pa.int64()),
                    "o_custkey": pa.array([1, 99], pa.int64()),
                }
            ),
            tmp_path / "orders.parquet",
        )
        # row 2: orphan orderkey; row 3: orphan partkey — each lineitem row
        # counts once in EACH of the three lineitem edges
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 99, 1], pa.int64()),
                    "l_partkey": pa.array([1, 1, 99], pa.int64()),
                    "l_suppkey": pa.array([1, 1, 1], pa.int64()),
                }
            ),
            tmp_path / "lineitem.parquet",
        )
        out = {
            r["edge"]: (r["n_child_rows"], r["n_orphans"])
            for r in QUERIES["referential_orphans"](str(tmp_path)).to_pylist()
        }
        assert out == {
            "lineitem.l_orderkey->orders": (3, 1),
            "lineitem.l_partkey->part": (3, 1),
            "lineitem.l_suppkey->supplier": (3, 0),
            "orders.o_custkey->customer": (2, 1),
            "customer.c_nationkey->nation": (1, 0),
            "supplier.s_nationkey->nation": (1, 0),
            "nation.n_regionkey->region": (2, 1),
        }
        oracle = {
            e: (n, o)
            for e, n, o in _oracle(
                tmp_path,
                "referential_orphans",
                ["region", "nation", "customer", "supplier", "part", "orders", "lineitem"],
            )
        }
        assert oracle == out


class TestEventsRollingZscore:
    def test_full_window_zscore_and_zero_variance(self, ray_session, tmp_path):
        import math

        # user 1: values 1..9 then a spike of 100 → one full window at the
        # 10th event; user 2: ten identical values → zero variance → NULL z;
        # user 3: nine events → no full window
        vals = [float(v) for v in range(1, 10)] + [100.0]
        rows = []
        for i, v in enumerate(vals):
            rows.append((i + 1, 10 + i, 1, v))
        for i in range(10):
            rows.append((100 + i, 10 + i, 2, 5.0))
        for i in range(9):
            rows.append((200 + i, 10 + i, 3, float(i)))
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array([r[0] for r in rows], pa.int64()),
                    "ts": pa.array(
                        [_ts_us(r[1]) for r in rows], pa.timestamp("us")
                    ),
                    "user_id": pa.array([r[2] for r in rows], pa.int64()),
                    "value": pa.array([r[3] for r in rows], pa.float64()),
                }
            ),
            tmp_path / "events.parquet",
        )
        def norm(z):
            # engine NULLs ride as float64 NaN (pandas), oracle as SQL NULL;
            # the driver's value canon treats them identically
            return None if z is None or (isinstance(z, float) and z != z) else z

        out = {
            r["event_id"]: (norm(r["z"]), r["is_anomaly"])
            for r in QUERIES["events_rolling_zscore"](str(tmp_path)).take_all()
        }
        cents = [v * 100 for v in (1, 2, 3, 4, 5, 6, 7, 8, 9, 100)]
        s = sum(int(c) for c in cents)
        ss = sum(int(c) * int(c) for c in cents)
        z10 = round((10 * 10000 - s) / math.sqrt((10 * ss - s * s) / 9.0), 6)
        assert out == {10: (z10, abs(z10) > 3.0), 109: (None, False)}
        oracle = {
            e: (norm(z), a)
            for e, z, a in _oracle(tmp_path, "events_rolling_zscore", ["events"])
        }
        assert oracle == out


class TestSupplierNationNameMatch:
    def test_argmax_and_tie_break(self, ray_session, tmp_path):
        pq.write_table(
            pa.table(
                {
                    "s_suppkey": pa.array([1, 2], pa.int64()),
                    "s_name": pa.array(["NATIOM_1", "zzzz"], pa.string()),
                }
            ),
            tmp_path / "supplier.parquet",
        )
        # NATION_1 beats NATION_2 for NATIOM_1; for "zzzz" every nation
        # scores 0.0 → lexicographically smallest name wins on both engines
        pq.write_table(
            pa.table(
                {"n_name": pa.array(["NATION_1", "NATION_2"], pa.string())}
            ),
            tmp_path / "nation.parquet",
        )
        out = {
            r["s_suppkey"]: (r["best_nation"], r["jw"])
            for r in QUERIES["supplier_nation_name_match"](str(tmp_path)).take_all()
        }
        from edge_deid_studio_ray.functions.textstats import jaro_winkler

        assert out[1][0] == "NATION_1"
        assert out[1][1] == round(jaro_winkler("NATIOM_1", "NATION_1"), 6)
        assert out[2] == ("NATION_1", 0.0)
        oracle = {
            k: (n, j)
            for k, n, j in _oracle(
                tmp_path, "supplier_nation_name_match", ["supplier", "nation"]
            )
        }
        assert oracle == out


class TestJaroWinklerBridge:
    def test_bit_identical_to_duckdb(self):
        import random
        import string

        from edge_deid_studio_ray.functions.textstats import jaro_winkler

        con = duckdb.connect()
        random.seed(3)
        cases = [("", ""), ("", "x"), ("F", "F"), ("a", "b"),
                 ("MARTHA", "MARHTA"), ("DIXON", "DICKSONX")]
        for _ in range(500):
            cases.append(
                tuple(
                    "".join(
                        random.choices(
                            string.ascii_uppercase[:8] + "#_0123456789",
                            k=random.randint(0, 18),
                        )
                    )
                    for _ in range(2)
                )
            )
        for a, b in cases:
            assert (
                jaro_winkler(a, b)
                == con.execute(
                    "SELECT jaro_winkler_similarity(?, ?)", [a, b]
                ).fetchone()[0]
            ), (a, b)


class TestKmeansSpherical:
    def test_tie_break_mass_conservation_and_oracle(self, ray_session, tmp_path):
        # seeds 0..7 are the first 8 vectors; vec 8 = [1,1] ties between
        # centroids 0=[1,0] and 1=[0,1] at cos 0.707107 → smaller cid wins
        vecs = [
            [1.0, 0.0],
            [0.0, 1.0],
            [-1.0, 0.0],
            [0.0, -1.0],
            [1.0, 0.2],
            [0.2, 1.0],
            [-1.0, -0.2],
            [-0.2, -1.0],
            [1.0, 1.0],
            [0.9, 0.1],
        ]
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(list(range(len(vecs))), pa.int64()),
                    "embedding": pa.array(vecs, pa.list_(pa.float32())),
                }
            ),
            tmp_path / "embeddings.parquet",
        )
        out = QUERIES["kmeans_spherical"](str(tmp_path)).to_pylist()
        assert sum(r["n_members"] for r in out) == len(vecs)
        assert sum(r["id_sum"] for r in out) == sum(range(len(vecs)))
        by_cluster = {r["cluster"]: r for r in out}
        # every cluster's (count, id_sum) matches an independent numpy
        # re-run of the 3 Lloyd rounds (argmax ties → smaller cid)
        for cid in by_cluster:
            _members_of(by_cluster, cid, vecs)
        oracle = sorted(
            _oracle(tmp_path, "kmeans_spherical", ["embeddings"])
        )
        assert oracle == sorted(
            (r["cluster"], r["n_members"], r["id_sum"]) for r in out
        )


def _members_of(by_cluster, cid, vecs):
    """Recover one cluster's member set from id_sum/n_members by re-running
    the reference rounds in plain numpy (test-side mirror)."""
    import numpy as np

    K, ROUNDS = 8, 3
    mat = np.array(vecs, dtype=np.float64)
    cmat = mat[:K].copy()
    assign = None
    for _ in range(ROUNDS):
        vn = np.linalg.norm(mat, axis=1)
        vn[vn == 0.0] = 1.0
        cn = np.linalg.norm(cmat, axis=1)
        cn[cn == 0.0] = 1.0
        cos = np.round((mat @ cmat.T) / np.outer(vn, cn), 6)
        assign = np.argmax(cos, axis=1)
        new = cmat.copy()
        for c in np.unique(assign):
            new[c] = mat[assign == c].sum(axis=0)
        cmat = new
    members = set(np.nonzero(assign == cid)[0].tolist())
    row = by_cluster[cid]
    assert row["n_members"] == len(members)
    assert row["id_sum"] == sum(members)
    return members


class TestLangConfusionMatrix:
    def test_confusion_counts(self, ray_session, tmp_path):
        en = "the cat is on the mat and it was for you"
        de = "der hund und die katze von dem haus mit im"
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3], pa.int64()),
                    "lang": pa.array(["en", "de", "de"], pa.string()),
                    "text": pa.array([en, de, en], pa.string()),
                }
            ),
            tmp_path / "documents.parquet",
        )
        out = {
            (r["actual"], r["predicted"]): r["n_docs"]
            for r in QUERIES["lang_confusion_matrix"](str(tmp_path)).take_all()
        }
        assert out == {("en", "en"): 1, ("de", "de"): 1, ("de", "en"): 1}
        oracle = {
            (a, p): n
            for a, p, n in _oracle(tmp_path, "lang_confusion_matrix", ["documents"])
        }
        assert oracle == out


class TestPqCodes:
    def test_subspace_argmin_and_tie(self, ray_session, tmp_path):
        # codebook c = all-constant vectors (value c); probe subspace s
        # holds value x_s → per-subspace distance sqrt(8)·|x_s − c|, so
        # the code is the nearest integer with .5 ties → smaller code
        probe = []
        xs = [0.0, 0.5, 2.4, 3.9, 1.0, 2.5, 0.4, 3.0]
        for x in xs:
            probe.extend([x] * 8)
        vecs = [[float(c)] * 64 for c in range(4)] + [probe]
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array([0, 1, 2, 3, 10], pa.int64()),
                    "embedding": pa.array(vecs, pa.list_(pa.float32())),
                }
            ),
            tmp_path / "embeddings.parquet",
        )
        out = {r["vec_id"]: r["pq_code"] for r in QUERIES["pq_codes"](str(tmp_path)).take_all()}
        assert out[0] == "00000000"
        assert out[3] == "33333333"
        # xs → nearest codes: 0, 0(tie), 2, 3(3.9→3... nearest of {0..3}), 1, 2(tie), 0, 3
        assert out[10] == "00231203"
        oracle = dict(_oracle(tmp_path, "pq_codes", ["embeddings"]))
        assert oracle == out


class TestCountminWordFreqs:
    def test_overestimate_guarantee_and_exactness_without_collisions(
        self, ray_session, tmp_path
    ):
        pq.write_table(
            pa.table(
                {
                    "text": pa.array(
                        ["solo solo solo", "solo solo"], pa.string()
                    )
                }
            ),
            tmp_path / "documents.parquet",
        )
        (row,) = QUERIES["countmin_word_freqs"](str(tmp_path)).to_pylist()
        # a single distinct word cannot collide with anything: est == exact
        assert (row["word"], row["n"], row["cms_est"]) == ("solo", 5, 5)
        assert _oracle(tmp_path, "countmin_word_freqs", ["documents"]) == [
            ("solo", 5, 5)
        ]

    def test_estimates_bound_exact_counts(self, ray_session, tmp_path):
        docs = [f"w{i % 37} w{i % 11} common" for i in range(200)]
        pq.write_table(
            pa.table({"text": pa.array(docs, pa.string())}),
            tmp_path / "documents.parquet",
        )
        rows = QUERIES["countmin_word_freqs"](str(tmp_path)).to_pylist()
        assert len(rows) == 20
        for r in rows:
            assert r["cms_est"] >= r["n"]
        oracle = sorted(_oracle(tmp_path, "countmin_word_freqs", ["documents"]))
        assert oracle == sorted((r["word"], r["n"], r["cms_est"]) for r in rows)


class TestDocNgramNovelty:
    def test_unique_vs_shared_grams(self, ray_session, tmp_path):
        shared = " ".join(f"s{i}" for i in range(13))
        # doc 1: 13 shared words + 1 extra → grams at pos 0 (shared, df=2)
        # and pos 1 (unique) → novelty 1/2; doc 2: exactly the shared gram
        # → novelty 0; doc 3: 12 words → no grams → excluded
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": pa.array(
                        [
                            shared + " tail",
                            shared,
                            " ".join(f"w{i}" for i in range(12)),
                        ],
                        pa.string(),
                    ),
                }
            ),
            tmp_path / "documents.parquet",
        )
        out = {
            r["doc_id"]: (r["n_grams"], r["n_unique"], r["novelty"])
            for r in QUERIES["doc_ngram_novelty"](str(tmp_path)).take_all()
        }
        assert out == {1: (2, 1, 0.5), 2: (1, 0, 0.0)}
        oracle = {
            d: (g, u, nv)
            for d, g, u, nv in _oracle(tmp_path, "doc_ngram_novelty", ["documents"])
        }
        assert oracle == out


class TestRevenueConcentration:
    def test_ceil_boundary_and_exact_share(self, ray_session, tmp_path):
        # 101 customers → k = ceil(1.01) = 2; top-2 by (cents desc, key asc)
        # include the tie at 300.00 resolved to the smaller custkey
        keys = list(range(1, 102))
        prices = [300.0, 300.0] + [10.0] * 99
        pq.write_table(
            pa.table(
                {
                    "o_custkey": pa.array(keys, pa.int64()),
                    "o_totalprice": pa.array(prices, pa.float64()),
                }
            ),
            tmp_path / "orders.parquet",
        )
        (row,) = QUERIES["revenue_concentration"](str(tmp_path)).to_pylist()
        total = 30000 + 30000 + 99 * 1000
        assert (row["n_customers"], row["top_k"]) == (101, 2)
        assert row["revenue_share"] == 60000 / total
        assert _oracle(tmp_path, "revenue_concentration", ["orders"]) == [
            (101, 2, 60000 / total)
        ]


class TestDocSelfRepetition:
    def test_repeated_gram_ratio(self, ray_session, tmp_path):
        # "a b c d e a b c d e a b c d e": 15 words → 11 5-gram positions,
        # 5 distinct cyclic grams → repetition 6/11; 4-word doc excluded
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array(
                        [" ".join(list("abcde") * 3), "a b c d"], pa.string()
                    ),
                }
            ),
            tmp_path / "documents.parquet",
        )
        out = {
            r["doc_id"]: (r["n_grams"], r["n_distinct"], r["repetition"])
            for r in QUERIES["doc_self_repetition"](str(tmp_path)).take_all()
        }
        assert out == {1: (11, 5, 6 / 11)}
        oracle = {
            d: (g, u, rr)
            for d, g, u, rr in _oracle(tmp_path, "doc_self_repetition", ["documents"])
        }
        assert oracle == out


class TestEmbeddingDimStats:
    def test_min_max_ssq(self, ray_session, tmp_path):
        pq.write_table(
            pa.table(
                {
                    "embedding": pa.array(
                        [[1.0, -2.0], [3.0, 0.5]], pa.list_(pa.float32())
                    )
                }
            ),
            tmp_path / "embeddings.parquet",
        )
        out = {
            r["d"]: (r["dim_min"], r["dim_max"], r["ssq"])
            for r in QUERIES["embedding_dim_stats"](str(tmp_path)).to_pylist()
        }
        assert out == {0: (1.0, 3.0, 10.0), 1: (-2.0, 0.5, 4.25)}
        oracle = {
            d: (mn, mx, s)
            for d, mn, mx, s in _oracle(tmp_path, "embedding_dim_stats", ["embeddings"])
        }
        assert oracle == out


class TestCurationFunnel:
    def test_sequential_attrition(self, ray_session, tmp_path):
        passing = "the a " + " ".join(["word"] * 30)  # 32 words, 2 stopwords
        docs = [
            passing,  # survives all gates
            "too short",  # fails word count
            " ".join(["word"] * 40),  # fails stopwords (0 hits)
            "the a " + " ".join(["word"] * 27) + " ####",  # 30 words, 4 syms → 40 > 30
            None,  # null → input only
        ]
        pq.write_table(
            pa.table({"text": pa.array(docs, pa.string())}),
            tmp_path / "documents.parquet",
        )
        out = {
            r["stage"]: r["n_surviving"]
            for r in QUERIES["curation_funnel"](str(tmp_path)).take_all()
        }
        assert out == {
            "0_input": 5,
            "1_word_count": 3,
            "2_stopwords": 2,
            "3_symbol_ratio": 1,
        }
        assert dict(_oracle(tmp_path, "curation_funnel", ["documents"])) == out


class TestReviewFixes:
    def test_referential_orphans_null_keys(self, ray_session, tmp_path):
        # NULL child FK = orphan by definition; NULL parent keys never match
        pq.write_table(
            pa.table({"r_regionkey": pa.array([0, None], pa.int64())}),
            tmp_path / "region.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "n_nationkey": pa.array([0], pa.int64()),
                    "n_regionkey": pa.array([None], pa.int64()),
                }
            ),
            tmp_path / "nation.parquet",
        )
        for t, cols in (
            ("customer", {"c_custkey": [1], "c_nationkey": [0]}),
            ("supplier", {"s_suppkey": [1], "s_nationkey": [0]}),
            ("part", {"p_partkey": [1]}),
            ("orders", {"o_orderkey": [1], "o_custkey": [1]}),
            (
                "lineitem",
                {"l_orderkey": [1], "l_partkey": [1], "l_suppkey": [1]},
            ),
        ):
            pq.write_table(
                pa.table({k: pa.array(v, pa.int64()) for k, v in cols.items()}),
                tmp_path / f"{t}.parquet",
            )
        out = {
            r["edge"]: (r["n_child_rows"], r["n_orphans"])
            for r in QUERIES["referential_orphans"](str(tmp_path)).to_pylist()
        }
        assert out["nation.n_regionkey->region"] == (1, 1)
        oracle = {
            e: (n, o)
            for e, n, o in _oracle(
                tmp_path,
                "referential_orphans",
                ["region", "nation", "customer", "supplier", "part", "orders", "lineitem"],
            )
        }
        assert oracle == out

    def test_centroid_outliers_zero_vector_parity(self, ray_session, tmp_path):
        # zero vector scores cos 0.0 on BOTH engines (guard + SQL mirror)
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array([1, 2, 3], pa.int64()),
                    "embedding": pa.array(
                        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                        pa.list_(pa.float32()),
                    ),
                    "label": pa.array([0, 0, 0], pa.int32()),
                }
            ),
            tmp_path / "embeddings.parquet",
        )
        rows = sorted(
            (r["label"], r["vec_id"], r["cos_centroid"])
            for r in QUERIES["label_centroid_outliers"](str(tmp_path)).take_all()
        )
        assert rows == [(0, 1, 0.0), (0, 2, 1.0), (0, 3, 1.0)]
        assert sorted(_oracle(tmp_path, "label_centroid_outliers", ["embeddings"])) == rows

    def test_kmeans_zero_vector_parity(self, ray_session, tmp_path):
        vecs = [[float(c)] * 4 + [1.0] * 60 for c in range(1, 9)]
        vecs.append([0.0] * 64)  # zero vector → cos 0.0 with every centroid
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(list(range(len(vecs))), pa.int64()),
                    "embedding": pa.array(vecs, pa.list_(pa.float32())),
                }
            ),
            tmp_path / "embeddings.parquet",
        )
        out = sorted(
            (r["cluster"], r["n_members"], r["id_sum"])
            for r in QUERIES["kmeans_spherical"](str(tmp_path)).to_pylist()
        )
        assert sorted(_oracle(tmp_path, "kmeans_spherical", ["embeddings"])) == out


class TestEventsActiveTime:
    def test_island_merge_adjacency_and_gaps(self, ray_session, tmp_path):
        # user 1: events at 0s, 200s (overlap), 500s (adjacent: 200+300),
        # 1000s (gap > 300 → new island).  Union: [0,800) ∪ [1000,1300)
        # = 1100s, 2 islands.  user 2: single event → 300s, 1 island.
        # user 3: duplicate timestamps → still one 300s island.
        rows = [
            (1, 0), (1, 200), (1, 500), (1, 1000),
            (2, 50),
            (3, 10), (3, 10),
        ]
        pq.write_table(
            pa.table(
                {
                    "user_id": pa.array([r[0] for r in rows], pa.int64()),
                    "ts": pa.array(
                        [_ts_us(r[1]) for r in rows], pa.timestamp("us")
                    ),
                }
            ),
            tmp_path / "events.parquet",
        )
        out = {
            r["user_id"]: (r["active_us"], r["n_islands"])
            for r in QUERIES["events_active_time"](str(tmp_path)).take_all()
        }
        assert out == {
            1: (1_100 * 1_000_000, 2),
            2: (300 * 1_000_000, 1),
            3: (300 * 1_000_000, 1),
        }
        oracle = {
            u: (a, i)
            for u, a, i in _oracle(tmp_path, "events_active_time", ["events"])
        }
        assert oracle == out


class TestContractProperties:
    """Hypothesis pins for the pure contracts the oracles rely on."""

    def test_count_equals_replace_length_fold(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        alphabet = st.text(alphabet="ab ", min_size=0, max_size=40)
        term = st.text(alphabet="ab ", min_size=1, max_size=5)

        @settings(max_examples=300, deadline=None)
        @given(alphabet, term)
        def prop(t, w):
            # Python str.count == the SQL replace-length fold (the
            # blocklist_term_stats occurrence contract)
            assert t.count(w) == (len(t) - len(t.replace(w, ""))) // len(w)

        prop()

    def test_jaro_winkler_symmetry_and_range(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from edge_deid_studio_ray.functions.textstats import jaro_winkler

        s = st.text(alphabet="abc#1", min_size=0, max_size=12)

        @settings(max_examples=300, deadline=None)
        @given(s, s)
        def prop(a, b):
            j = jaro_winkler(a, b)
            assert j == jaro_winkler(b, a)
            assert 0.0 <= j <= 1.0
            if a == b and a:
                assert j == 1.0

        prop()

    def test_gram_strings_count_invariant(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from edge_deid_studio_ray.pipelines.queries import _gram_strings

        words = st.lists(
            st.text(alphabet="xyz", min_size=1, max_size=4), max_size=15
        )

        @settings(max_examples=300, deadline=None)
        @given(words)
        def prop(ws):
            text = " ".join(ws)
            grams = _gram_strings(text)
            n = len([w for w in text.lower().split()])
            if n == 0:
                assert grams == set()
            elif n < 3:
                assert len(grams) == 1
            else:
                # distinct count ≤ positions; every gram has 3 words
                assert 1 <= len(grams) <= n - 2
                assert all(len(g.split(" ")) == 3 for g in grams)

        prop()


class TestEventsCusumAlarms:
    def test_recurrence_clamp_and_alarm_threshold(self, ray_session, tmp_path):
        # user 1 values (cents): 200.00, 50.00, 700.00, 700.00 with drift
        # 105.00 → d = 9500, -5500, 59500, 59500
        # S: 9500, 4000, 63500 (>50000 alarm), 123000 (alarm) → peak 123000,
        # 2 alarms.  user 2: all below drift → S clamps at 0 throughout.
        rows = [
            (1, 0, 1, 200.0),
            (2, 10, 1, 50.0),
            (3, 20, 1, 700.0),
            (4, 30, 1, 700.0),
            (5, 0, 2, 1.0),
            (6, 10, 2, 2.0),
        ]
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array([r[0] for r in rows], pa.int64()),
                    "ts": pa.array(
                        [_ts_us(r[1]) for r in rows], pa.timestamp("us")
                    ),
                    "user_id": pa.array([r[2] for r in rows], pa.int64()),
                    "value": pa.array([r[3] for r in rows], pa.float64()),
                }
            ),
            tmp_path / "events.parquet",
        )
        out = {
            r["user_id"]: (r["peak_s"], r["n_alarms"])
            for r in QUERIES["events_cusum_alarms"](str(tmp_path)).take_all()
        }
        assert out == {1: (123000, 2), 2: (0, 0)}
        oracle = {
            u: (p, a)
            for u, p, a in _oracle(tmp_path, "events_cusum_alarms", ["events"])
        }
        assert oracle == out


class TestBpeApplyMerge:
    def test_argmax_tie_and_overlapping_merge(self, ray_session, tmp_path):
        # pairs: "aa" appears 4x ("aaa" has 2 adjacent positions, "aa" 1,
        # plus "baa" 1); leftmost non-overlap merging: "aaa" → 1 merge,
        # "aa" → 1, "baa" → 1.  Words: aaa(3), aa(2), baa(3), cd(2) →
        # before 10, merges 3 → after 7
        pq.write_table(
            pa.table(
                {"text": pa.array(["AAA aa", "baa cd"], pa.string())}
            ),
            tmp_path / "documents.parquet",
        )
        (row,) = QUERIES["bpe_apply_merge"](str(tmp_path)).to_pylist()
        assert row == {
            "merge_pair": "aa",
            "n_words": 4,
            "symbols_before": 10,
            "symbols_after": 7,
        }
        assert _oracle(tmp_path, "bpe_apply_merge", ["documents"]) == [
            ("aa", 4, 10, 7)
        ]


class TestEventsUserEntropy:
    def test_hand_computed_entropy(self, ray_session, tmp_path):
        import math

        # user 1: A,A,B,C → H = -(1/2 ln 1/2 + 1/4 ln 1/4 ×2);
        # user 2: single type → 0.0
        types = ["A", "A", "B", "C", "X", "X"]
        users = [1, 1, 1, 1, 2, 2]
        pq.write_table(
            pa.table(
                {
                    "user_id": pa.array(users, pa.int64()),
                    "event_type": pa.array(types, pa.string()),
                }
            ),
            tmp_path / "events.parquet",
        )
        out = {
            r["user_id"]: (r["n_events"], r["entropy"])
            for r in QUERIES["events_user_entropy"](str(tmp_path)).take_all()
        }
        h1 = round(
            -(0.5 * math.log(0.5)) - 2 * (0.25 * math.log(0.25)), 6
        )
        assert out == {1: (4, h1), 2: (2, 0.0)}
        oracle = {
            u: (n, h)
            for u, n, h in _oracle(tmp_path, "events_user_entropy", ["events"])
        }
        assert oracle == out


class TestSupplierBalanceGini:
    def test_closed_form_against_definition(self, ray_session, tmp_path):
        # balances 1.00, 1.00, 2.00, 4.00 (positive); one negative ignored.
        # sorted cents [100,100,200,400], n=4, Σx=800
        # num = Σ(2i−5)·x = (−3)(100)+(−1)(100)+(1)(200)+(3)(400) = 1000
        # G = 1000/(4·800) = 0.3125
        pq.write_table(
            pa.table(
                {
                    "s_suppkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
                    "s_acctbal": pa.array(
                        [1.0, 1.0, 2.0, 4.0, -3.0], pa.float64()
                    ),
                }
            ),
            tmp_path / "supplier.parquet",
        )
        (row,) = QUERIES["supplier_balance_gini"](str(tmp_path)).to_pylist()
        assert (row["n_suppliers"], row["gini"]) == (4, 0.3125)
        assert _oracle(tmp_path, "supplier_balance_gini", ["supplier"]) == [
            (4, 0.3125)
        ]

    def test_equal_balances_give_zero(self, ray_session, tmp_path):
        pq.write_table(
            pa.table(
                {
                    "s_suppkey": pa.array([1, 2, 3], pa.int64()),
                    "s_acctbal": pa.array([5.0, 5.0, 5.0], pa.float64()),
                }
            ),
            tmp_path / "supplier.parquet",
        )
        (row,) = QUERIES["supplier_balance_gini"](str(tmp_path)).to_pylist()
        assert (row["n_suppliers"], row["gini"]) == (3, 0.0)


class TestReferentialOrphansFallback:
    @staticmethod
    def _run(tmp_path):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        return {
            r["edge"]: (r["n_child_rows"], r["n_orphans"])
            for r in QUERIES["referential_orphans"](str(tmp_path)).to_pylist()
        }

    def test_bucketed_fallback_equals_broadcast(self, ray_session, tmp_path, monkeypatch):
        """A zero ``_BROADCAST_KEYS_MAX`` forces the big-parent co-group;
        both paths must produce identical edge counts on a fixture with
        orphans and NULL keys, and the co-grouped path, chosen from the
        parents' parquet footers, never takes a parent key to the driver."""
        import ray.data as rd

        pq.write_table(
            pa.table({"r_regionkey": pa.array([0], pa.int64())}),
            tmp_path / "region.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "n_nationkey": pa.array([0, 1], pa.int64()),
                    "n_regionkey": pa.array([0, 7], pa.int64()),  # 7 = orphan
                }
            ),
            tmp_path / "nation.parquet",
        )
        pq.write_table(
            pa.table(
                {"c_custkey": pa.array([1], pa.int64()), "c_nationkey": pa.array([0], pa.int64())}
            ),
            tmp_path / "customer.parquet",
        )
        pq.write_table(
            pa.table(
                {"s_suppkey": pa.array([1], pa.int64()), "s_nationkey": pa.array([None], pa.int64())}
            ),
            tmp_path / "supplier.parquet",
        )
        pq.write_table(
            pa.table({"p_partkey": pa.array([1], pa.int64())}), tmp_path / "part.parquet"
        )
        pq.write_table(
            pa.table(
                {"o_orderkey": pa.array([1, 2], pa.int64()), "o_custkey": pa.array([1, 9], pa.int64())}
            ),
            tmp_path / "orders.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 9], pa.int64()),
                    "l_partkey": pa.array([1, 1], pa.int64()),
                    "l_suppkey": pa.array([1, 9], pa.int64()),
                }
            ),
            tmp_path / "lineitem.parquet",
        )

        taken = []
        take_all = rd.Dataset.take_all

        def recording_take_all(ds, *args, **kwargs):
            taken.append(ds)
            return take_all(ds, *args, **kwargs)

        monkeypatch.setattr(rd.Dataset, "take_all", recording_take_all)
        broadcast = self._run(tmp_path)
        assert taken  # the broadcast path gathers each parent's keys
        taken.clear()
        monkeypatch.setattr(queries, "_BROADCAST_KEYS_MAX", 0)
        bucketed = self._run(tmp_path)
        assert not taken
        assert broadcast == bucketed
        assert broadcast["orders.o_custkey->customer"] == (2, 1)
        assert broadcast["supplier.s_nationkey->nation"] == (1, 1)
        assert broadcast["nation.n_regionkey->region"] == (2, 1)

    def test_empty_child_table_counts_zero(self, ray_session, tmp_path, monkeypatch):
        """A child table with no rows audits as (0 rows, 0 orphans) on both
        paths instead of failing on an empty aggregate."""
        int64 = pa.int64()
        tables = {
            "region": {"r_regionkey": [0]},
            "nation": {"n_nationkey": [0], "n_regionkey": [0]},
            "customer": {"c_custkey": [1], "c_nationkey": [0]},
            "supplier": {"s_suppkey": [1], "s_nationkey": [0]},
            "part": {"p_partkey": [1]},
            "orders": {"o_orderkey": [1], "o_custkey": [1]},
            "lineitem": {"l_orderkey": [], "l_partkey": [], "l_suppkey": []},
        }
        for name, cols in tables.items():
            pq.write_table(
                pa.table({c: pa.array(v, int64) for c, v in cols.items()}),
                tmp_path / f"{name}.parquet",
            )
        lineitem_edges = [
            "lineitem.l_orderkey->orders",
            "lineitem.l_partkey->part",
            "lineitem.l_suppkey->supplier",
        ]
        broadcast = self._run(tmp_path)
        monkeypatch.setattr(queries, "_BROADCAST_KEYS_MAX", 0)
        bucketed = self._run(tmp_path)
        assert broadcast == bucketed
        assert [broadcast[e] for e in lineitem_edges] == [(0, 0)] * 3
        assert broadcast["orders.o_custkey->customer"] == (1, 0)
