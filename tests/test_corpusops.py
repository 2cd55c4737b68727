"""Unit tests for functions/corpusops.py (decontamination, passage dedup,
repetition signals, sequence packing) against hand-computed expectations."""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pytest

from edge_deid_studio_ray.functions.corpusops import (
    _ngrams,
    _words,
    collect_ngram_set,
    decontaminate,
    duplicate_ngram_spans,
    passage_dedup,
    repetition_stats,
    token_stream_pack,
)


def _md5(s: str) -> str:
    return hashlib.md5(s.encode()).hexdigest()


def _docs(rows):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )


class TestHelpers:
    def test_words_mirrors_duckdb_split(self):
        assert _words("  a   b\tc\n") == ["a", "b", "c"]
        assert _words("") == [""]
        assert _words(None) == [""]

    def test_ngrams(self):
        assert _ngrams(["a", "b", "c"], 2) == ["a b", "b c"]
        assert _ngrams(["a"], 2) == []


class TestDecontaminate:
    def test_flags_only_overlapping_docs(self, ray_session):
        ev = _docs([(0, "w1 w2 w3 w4 w5")])
        train = _docs(
            [
                (10, "x w1 w2 w3 y"),      # shares the 3-gram "w1 w2 w3"
                (11, "nothing in common"),
                (12, "w3 w4 w5 w3 w4 w5"), # shares "w3 w4 w5" (distinct count 1)
            ]
        )
        grams = collect_ngram_set(ev, n=3)
        assert _md5("w1 w2 w3") in grams
        out = {r["doc_id"]: r["n_shared"] for r in decontaminate(train, grams, n=3).take_all()}
        assert out == {10: 1, 12: 1}

    def test_counts_distinct_shared(self, ray_session):
        ev = _docs([(0, "a b c d")])
        train = _docs([(1, "a b c d")])  # shares "a b c" and "b c d"
        grams = collect_ngram_set(ev, n=3)
        out = decontaminate(train, grams, n=3).take_all()
        assert out == [{"doc_id": 1, "n_shared": 2}]


class TestPassageDedup:
    def test_first_occurrence_wins_and_reassembly(self, ray_session):
        # chunks of 2 words; passage "a b" appears in doc 1 chunk 0 (winner),
        # doc 1 chunk 2 and doc 2 chunk 0 (both dropped)
        ds = _docs([(1, "a b c d a b"), (2, "a b e f")])
        rows = {r["doc_id"]: r for r in passage_dedup(ds, words_per_chunk=2).take_all()}
        assert rows[1]["n_chunks"] == 3 and rows[1]["n_kept"] == 2
        assert rows[1]["kept_md5"] == _md5("a b c d")
        assert rows[2]["n_chunks"] == 2 and rows[2]["n_kept"] == 1
        assert rows[2]["kept_md5"] == _md5("e f")

    def test_all_dropped_doc_still_reported(self, ray_session):
        ds = _docs([(1, "a b"), (2, "a b")])
        rows = {r["doc_id"]: r for r in passage_dedup(ds, words_per_chunk=2).take_all()}
        assert rows[2]["n_kept"] == 0
        assert rows[2]["kept_md5"] == _md5("")

    def test_bucket_count_invariance(self, ray_session, split_cogroups):
        """Partition invariance: one-block and several-block co-group
        inputs give the same passage dedup."""
        from edge_deid_studio_ray.functions import corpusops

        ds = _docs([(i, f"tok{i % 3} tok{i % 2} filler{i}") for i in range(20)])
        split_cogroups(1)
        a = sorted(
            corpusops.passage_dedup(ds, words_per_chunk=2).take_all(),
            key=lambda r: r["doc_id"],
        )
        split_cogroups(3)
        b = sorted(
            corpusops.passage_dedup(ds, words_per_chunk=2).take_all(),
            key=lambda r: r["doc_id"],
        )
        assert a == b


class TestDuplicateNgramSpans:
    def test_islands_and_coverage(self, ray_session):
        ds = _docs(
            [
                (1, "w1 w2 w3 w4 w5 x y z w1 w2 w3 w4"),
                (2, "q w1 w2 w3 w4 r"),
                (3, "nothing shared here at all"),
            ]
        )
        rows = {r["doc_id"]: r for r in duplicate_ngram_spans(ds, n=3).take_all()}
        assert set(rows) == {1, 2}
        # doc 1: shared 3-grams "w1 w2 w3"/"w2 w3 w4" at pos 0,1 and 8,9
        # -> 2 islands covering words 0-3 and 8-11 (4 words each)
        assert rows[1]["n_dup_ngrams"] == 4
        assert rows[1]["n_islands"] == 2
        assert rows[1]["dup_word_count"] == 8
        assert rows[1]["max_island_words"] == 4
        # doc 2: hits at pos 1,2 -> one island covering words 1-4
        assert rows[2]["n_dup_ngrams"] == 2
        assert rows[2]["n_islands"] == 1
        assert rows[2]["dup_word_count"] == 4

    def test_internal_repeats_not_flagged(self, ray_session):
        # a gram repeated WITHIN one doc only is not a cross-doc duplicate
        ds = _docs([(1, "a b c a b c"), (2, "x y z")])
        assert duplicate_ngram_spans(ds, n=3).take_all() == []


class TestRepetitionStats:
    def test_hand_computed(self, ray_session):
        rows = {
            r["doc_id"]: r
            for r in repetition_stats(_docs([(1, "a b a b a"), (2, "x")])).take_all()
        }
        # bigrams of doc 1: "a b","b a","a b","b a" -> total 4, max 2, distinct 2
        assert rows[1]["n_bigrams"] == 4
        assert rows[1]["max_bigram_count"] == 2
        assert rows[1]["n_distinct_bigrams"] == 2
        assert rows[2]["n_bigrams"] == 0
        assert rows[2]["max_bigram_count"] == 0


class TestBruteForceProperties:
    """Randomized corpora checked against pure-Python brute force."""

    @staticmethod
    def _random_corpus(seed: int, n_docs: int = 24):
        import random

        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(6)]
        return [
            (i, " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 18))))
            for i in range(n_docs)
        ]

    def test_duplicate_spans_match_bruteforce(self, ray_session):
        docs = self._random_corpus(7)
        n = 3
        grams: dict[str, set[int]] = {}
        per_doc: dict[int, list[int]] = {}
        for d, t in docs:
            ws = _words(t)
            for i in range(len(ws) - n + 1):
                g = " ".join(ws[i : i + n])
                grams.setdefault(g, set()).add(d)
                per_doc.setdefault(d, []).append(i)
        expected = {}
        for d, t in docs:
            ws = _words(t)
            hits = [
                i
                for i in range(len(ws) - n + 1)
                if len(grams[" ".join(ws[i : i + n])]) > 1
            ]
            if not hits:
                continue
            islands = [[hits[0], hits[0]]]
            for p in hits[1:]:
                if p - islands[-1][1] > n:
                    islands.append([p, p])
                else:
                    islands[-1][1] = p
            widths = [e - s + n for s, e in islands]
            expected[d] = {
                "n_dup_ngrams": len(hits),
                "n_islands": len(islands),
                "dup_word_count": sum(widths),
                "max_island_words": max(widths),
            }
        got = {
            r["doc_id"]: {k: r[k] for k in expected.get(r["doc_id"], {})}
            for r in duplicate_ngram_spans(_docs(docs), n=n).take_all()
        }
        assert got == expected

    def test_passage_dedup_global_invariants(self, ray_session):
        docs = self._random_corpus(11)
        wpc = 3
        all_chunks, distinct = 0, set()
        for _, t in docs:
            ws = _words(t)
            for i in range(0, len(ws), wpc):
                all_chunks += 1
                distinct.add(" ".join(ws[i : i + wpc]))
        rows = passage_dedup(_docs(docs), words_per_chunk=wpc).take_all()
        assert sum(r["n_chunks"] for r in rows) == all_chunks
        # global first-occurrence keep: exactly one survivor per distinct passage
        assert sum(r["n_kept"] for r in rows) == len(distinct)

    def test_decontaminate_matches_bruteforce(self, ray_session):
        docs = self._random_corpus(13)
        ev_docs = [d for d in docs if d[0] % 5 == 0]
        tr_docs = [d for d in docs if d[0] % 5 != 0]
        n = 3
        ev_grams = {g for _, t in ev_docs for g in _ngrams(_words(t), n)}
        expected = {}
        for d, t in tr_docs:
            shared = set(_ngrams(_words(t), n)) & ev_grams
            if shared:
                expected[d] = len(shared)
        grams = collect_ngram_set(_docs(ev_docs), n=n)
        got = {
            r["doc_id"]: r["n_shared"]
            for r in decontaminate(_docs(tr_docs), grams, n=n).take_all()
        }
        assert got == expected


class TestTokenStreamPack:
    def test_hand_computed(self, ray_session):
        import ray.data as rd

        ds = rd.from_arrow(
            pa.table(
                {
                    "source": pa.array(["s1"] * 3 + ["s2"], pa.string()),
                    "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": pa.array(
                        ["a b c", "d e f g", "h i", "j k"], pa.string()
                    ),
                }
            )
        )
        rows = {r["source"]: r for r in token_stream_pack(ds, budget=4).take_all()}
        # s1 stream: doc1 [0,3) in seq0; doc2 [3,7) straddles seqs 0-1;
        # doc3 [7,9) straddles seqs 1-2 -> 9 tokens, ceil(9/4)=3 sequences
        s1 = rows["s1"]
        assert s1["n_tokens"] == 9
        assert s1["n_sequences"] == 3
        assert s1["n_straddlers"] == 2
        s2 = rows["s2"]
        assert s2["n_tokens"] == 2 and s2["n_sequences"] == 1 and s2["n_straddlers"] == 0


class TestTemperatureSample:
    def test_rates_formula(self):
        from edge_deid_studio_ray.functions.corpusops import temperature_rates

        counts = {"en": 800, "de": 200, "zh": 100}
        # T=1 -> no rebalancing
        assert temperature_rates(counts, 1.0) == {"en": 1.0, "de": 1.0, "zh": 1.0}
        r = temperature_rates(counts, 0.7)
        assert r["zh"] == 1.0  # rarest keeps everything
        assert r["en"] == (800 / 100) ** (0.7 - 1.0)
        assert r["en"] < r["de"] < r["zh"]  # monotone down in count

    def test_md5_uniform_matches_duckdb(self):
        import duckdb

        from edge_deid_studio_ray.functions.corpusops import md5_uniform

        for key in (0, 123, 999_999_999, "abc"):
            sql = duckdb.sql(
                "SELECT CAST(md5_number_upper(CAST(? AS VARCHAR)) AS DOUBLE)"
                " / 18446744073709551616.0",
                params=[key],
            ).fetchone()[0]
            assert md5_uniform(key) == sql

    def test_summary_counts(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.corpusops import (
            md5_uniform,
            temperature_sample_summary,
        )

        rows = [{"doc_id": i, "lang": "en" if i % 4 else "zh"} for i in range(200)]
        rates = {"en": 0.5, "zh": 1.0}
        out = {
            r["lang"]: r
            for r in temperature_sample_summary(rd.from_items(rows), rates).take_all()
        }
        # zh keeps everything
        zh_ids = [r["doc_id"] for r in rows if r["lang"] == "zh"]
        assert out["zh"]["n_kept"] == len(zh_ids)
        assert out["zh"]["sum_kept_ids"] == sum(zh_ids)
        # en matches the brute-force membership rule exactly
        en_kept = [
            r["doc_id"]
            for r in rows
            if r["lang"] == "en" and md5_uniform(r["doc_id"]) < 0.5
        ]
        assert out["en"]["n_kept"] == len(en_kept)
        assert out["en"]["sum_kept_ids"] == sum(en_kept)


class TestTrigramLm:
    def test_model_and_scores_by_hand(self, ray_session):
        import math

        import ray.data as rd

        from edge_deid_studio_ray.functions.corpusops import (
            trigram_model,
            trigram_nll_scores,
        )

        docs = [
            {"doc_id": 1, "lang": "en", "text": "abcab"},  # abc, bca, cab
            {"doc_id": 2, "lang": "en", "text": "abc"},  # abc
            {"doc_id": 3, "lang": "en", "text": "xy"},  # too short: no trigrams
        ]
        ds = rd.from_items(docs)
        logp, denoms = trigram_model(ds)
        # model: abc->2, bca->1, cab->1; N=4 tokens, V=3 distinct
        assert denoms == {"en": (4, 3)}
        assert logp[("en", "abc")] == math.log(3 / 7.0)
        assert logp[("en", "bca")] == math.log(2 / 7.0)
        scored = {r["doc_id"]: r for r in trigram_nll_scores(ds, logp, denoms).take_all()}
        assert 3 not in scored  # sub-trigram docs are excluded, not zero-scored
        exp1 = -(math.log(3 / 7.0) + math.log(2 / 7.0) + math.log(2 / 7.0)) / 3
        assert scored[1]["nll"] == round(exp1, 6)
        assert scored[1]["n_tri"] == 3
        assert scored[2]["nll"] == round(-math.log(3 / 7.0), 6)

    def test_unseen_trigram_gets_add_one_floor(self, ray_session):
        import math

        import ray.data as rd

        from edge_deid_studio_ray.functions.corpusops import (
            trigram_model,
            trigram_nll_scores,
        )

        train = rd.from_items([{"doc_id": 1, "lang": "en", "text": "abcd"}])
        logp, denoms = trigram_model(train)  # N=2, V=2
        other = rd.from_items(
            [
                {"doc_id": 9, "lang": "en", "text": "zzz"},
                # a language the model never saw must be EXCLUDED, not
                # given the perfect 0.0 score
                {"doc_id": 10, "lang": "xx", "text": "abcdef"},
            ]
        )
        rows = {r["doc_id"]: r for r in trigram_nll_scores(other, logp, denoms).take_all()}
        assert rows[9]["nll"] == round(-math.log(1 / 4.0), 6)
        assert 10 not in rows


class TestTrigramQualityBuckets:
    def test_tercile_cut_with_ties(self, ray_session, tmp_path):
        """Threshold bucketing (nll <= t1 / <= t2) must count ties INTO the
        lower bucket on both engines — pin it against DuckDB on a corpus
        engineered so several docs share an identical nll."""
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.pipelines.queries import ORACLE_SQL, QUERIES

        docs = []
        for i in range(12):
            # 4 identical docs -> one tied nll; plus 8 distinct ones
            text = "aaaa" if i < 4 else ("abcdefg"[: 3 + (i % 5)] + "xyz" * (i % 3 + 1))
            docs.append({"doc_id": i, "lang": "en", "text": text})
        tbl = pa.Table.from_pylist(docs)
        pq.write_table(tbl, tmp_path / "documents.parquet")
        for t in "region nation customer supplier part orders lineitem events embeddings".split():
            pq.write_table(pa.table({"x": pa.array([], pa.int64())}), tmp_path / f"{t}.parquet")

        mine = QUERIES["trigram_quality_buckets"](str(tmp_path))
        if hasattr(mine, "to_pandas"):
            mine = mine.to_pandas()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
        )
        oracle = con.execute(ORACLE_SQL["trigram_quality_buckets"]).df()
        mine = mine[sorted(mine.columns)].sort_values("lang").reset_index(drop=True)
        oracle = oracle[sorted(oracle.columns)].sort_values("lang").reset_index(drop=True)
        assert mine.equals(oracle)
        row = mine.iloc[0]
        assert row["n_head"] + row["n_middle"] + row["n_tail"] == row["n_docs"] == 12


class TestShipBandRangeJoin:
    def test_inclusive_band_and_empty_band(self, ray_session, tmp_path):
        """Range-join bounds are inclusive on BOTH ends and an order with no
        lineitem in its band reports (0, 0) — pinned against the SQL oracle
        on a hand-built calendar."""
        import duckdb
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from edge_deid_studio_ray.pipelines.queries import ORACLE_SQL, QUERIES

        day = np.timedelta64(1, "D")
        base = np.datetime64("2024-06-15", "us")
        orders = pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3], pa.int64()),
                "o_orderdate": pa.array(
                    [base, base + 100 * day, base - 100 * day], pa.timestamp("us")
                ),
            }
        )
        # lineitems exactly AT the band edges (+7d, -7d), inside, and far out
        lineitem = pa.table(
            {
                "l_shipdate": pa.array(
                    [base + 7 * day, base - 7 * day, base, base + 8 * day],
                    pa.timestamp("us"),
                ),
                "l_quantity": pa.array([10.0, 20.0, 5.0, 99.0], pa.float64()),
            }
        )
        pq.write_table(orders, tmp_path / "orders.parquet")
        pq.write_table(lineitem, tmp_path / "lineitem.parquet")

        out = {
            r["o_orderkey"]: r
            for r in QUERIES["orders_lineitem_ship_band"](str(tmp_path)).take_all()
        }
        assert out[1]["n_near"] == 3 and out[1]["qty_near"] == 35  # both edges in
        assert out[2]["n_near"] == 0 and out[2]["qty_near"] == 0  # empty band
        assert out[3]["n_near"] == 0 and out[3]["qty_near"] == 0

        con = duckdb.connect()
        for t in ("orders", "lineitem"):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')")
        oracle = {r[0]: r for r in con.execute(ORACLE_SQL["orders_lineitem_ship_band"]).fetchall()}
        for k, r in out.items():
            assert (r["n_near"], r["qty_near"]) == (oracle[k][1], oracle[k][2])


class TestDatasetSplit:
    def test_split_thresholds_match_brute_force(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.corpusops import md5_uniform
        from edge_deid_studio_ray.pipelines.queries import q_dataset_split_counts
        import pyarrow.parquet as pq
        import pyarrow as pa
        import tempfile, os

        with tempfile.TemporaryDirectory() as d:
            docs = pa.table(
                {
                    "doc_id": pa.array(list(range(400)), pa.int64()),
                    "lang": pa.array(["en"] * 400, pa.string()),
                }
            )
            pq.write_table(docs, os.path.join(d, "documents.parquet"))
            rows = {r["split"]: r for r in q_dataset_split_counts(d).take_all()}
        brute = {"train": [], "val": [], "test": []}
        for i in range(400):
            u = md5_uniform(i)
            brute["train" if u < 0.8 else ("val" if u < 0.9 else "test")].append(i)
        for split, ids in brute.items():
            assert rows[split]["n_docs"] == len(ids)
            assert rows[split]["sum_ids"] == sum(ids)


class TestDecontaminateStringKeys:
    def test_url_keyed_corpus(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.corpusops import (
            collect_ngram_set,
            decontaminate,
        )

        bench = rd.from_items(
            [{"doc_id": 0, "text": "alpha beta gamma delta " * 5}]
        )
        grams = collect_ngram_set(bench, n=3)
        train = rd.from_items(
            [
                {"doc_id": "https://a.example/x", "text": "alpha beta gamma delta " * 3},
                {"doc_id": "https://b.example/y", "text": "totally clean document words"},
            ]
        )
        out = decontaminate(train, grams, n=3).take_all()
        assert [r["doc_id"] for r in out] == ["https://a.example/x"]
        assert out[0]["n_shared"] > 0
