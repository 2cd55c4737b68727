"""Tests for corpus-level functions: text stats, dedup, similarity search."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from edge_deid_studio_ray.functions import (
    MinHasher,
    fingerprint64,
    hamming64,
    jaccard,
    lang_id,
    md5_hex,
    quality_counts,
    quality_score,
    simhash64,
    token_count,
    word_ngram_jaccard,
)


class TestTextStats:
    def test_token_count(self):
        assert token_count("a b  c\n d") == 4
        assert token_count("") == 0

    def test_quality_counts_exact(self):
        c = quality_counts("The cat, 42 dogs!")
        assert c["n_tokens"] == 4
        assert c["n_digit"] == 2
        assert c["n_punct"] == 2  # "," and "!"
        assert c["n_stopwords"] == 1  # "The"

    def test_quality_score_range(self):
        assert quality_score("") == 0.0
        long_text = "the quick brown fox jumps over the lazy dog " * 10
        assert 0.5 <= quality_score(long_text) <= 1.0

    def test_lang_id(self):
        assert lang_id("資料處理引擎批次串流") == "zh"
        assert lang_id("the cat sat on the mat and it was happy") == "en"
        assert lang_id("der hund und die katze sind im haus von den") == "de"
        assert lang_id("") == "und"

    def test_fingerprint_deterministic_and_whitespace_normalized(self):
        assert fingerprint64("a  b") == fingerprint64("a b")
        assert fingerprint64("a b") != fingerprint64("a c")

    def test_simhash_similar_texts_close(self):
        a = "the quick brown fox jumps over the lazy dog near the river bank"
        b = "the quick brown fox jumps over the lazy dog near the river bend"
        c = "completely different words appear here without any shared tokens"
        assert hamming64(simhash64(a), simhash64(b)) < hamming64(simhash64(a), simhash64(c))


class TestDedupKernels:
    def test_md5_matches_hashlib(self):
        import hashlib

        assert md5_hex("abc") == hashlib.md5(b"abc").hexdigest()

    def test_jaccard_bounds(self):
        assert jaccard("hello world", "hello world") == 1.0
        assert jaccard("aaaaaaaa", "zzzzzzzz") == 0.0
        near = jaccard("the quick brown fox jumps", "the quick brown fox jumped")
        assert 0.5 < near < 1.0

    def test_word_ngram_jaccard(self):
        assert word_ngram_jaccard("a b c d", "a b c d") == 1.0
        assert word_ngram_jaccard("a b c d e", "a b c d x") < 1.0

    def test_minhash_estimates_jaccard(self):
        hasher = MinHasher(num_hashes=256)
        a = "the quick brown fox jumps over the lazy dog " * 5
        b = a + "and then some extra trailing words here"
        sig_a, sig_b = hasher.signature(a), hasher.signature(b)
        est = (sig_a == sig_b).mean()
        true = jaccard(a, b)
        assert abs(est - true) < 0.15

    def test_minhash_deterministic(self):
        h1, h2 = MinHasher(64), MinHasher(64)
        assert (h1.signature("some text") == h2.signature("some text")).all()

    def test_hamming64_matrix_matches_swar(self):
        from edge_deid_studio_ray.functions.dedup import (
            _hamming64_matrix,
            _popcount64,
        )

        rng = np.random.RandomState(7)
        a = rng.randint(0, 2**63, size=37, dtype=np.uint64)
        b = rng.randint(0, 2**63, size=53, dtype=np.uint64)
        got = _hamming64_matrix(a, b)
        want = _popcount64(a[:, None] ^ b[None, :]).astype(np.uint8)
        assert got.shape == (37, 53)
        assert (got == want).all()
        # edges: identical vectors (0), complementary (64)
        x = np.array([0, 2**64 - 1], dtype=np.uint64)
        d = _hamming64_matrix(x, x)
        assert d[0, 0] == 0 and d[1, 1] == 0 and d[0, 1] == 64 and d[1, 0] == 64

    def test_first_collide_band(self):
        from edge_deid_studio_ray.functions.dedup import (
            MinHasher,
            _first_collide_band,
            band_keys,
        )

        # identical signatures collide at band 0
        same = bytes(range(32))
        assert _first_collide_band(same, same, 4) == 0
        # collision only at band 2
        da = b"\x00" * 8 + b"\x11" * 8 + b"\xaa" * 8 + b"\x33" * 8
        db = b"\x01" * 8 + b"\x12" * 8 + b"\xaa" * 8 + b"\x34" * 8
        assert _first_collide_band(da, db, 4) == 2
        # no collision anywhere
        assert _first_collide_band(da, b"\xff" * 32, 4) == -1
        # consistency with band_keys: equal digest <=> equal band key
        h = MinHasher(64)
        sa, sb = h.signature("a near duplicate text " * 4), h.signature(
            "a near duplicate text " * 4 + "tail"
        )
        digs_a = b"".join(bytes.fromhex(k.split(":", 1)[1]) for k in band_keys(sa, 16))
        digs_b = b"".join(bytes.fromhex(k.split(":", 1)[1]) for k in band_keys(sb, 16))
        first = _first_collide_band(digs_a, digs_b, 16)
        collide_by_key = [
            i
            for i, (ka, kb) in enumerate(zip(band_keys(sa, 16), band_keys(sb, 16)))
            if ka == kb
        ]
        assert (first == -1 and not collide_by_key) or first == collide_by_key[0]


class TestDatasetOps:
    def test_exact_dedup(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions import exact_dedup

        ds = rd.from_arrow(
            pa.table({"doc_id": [3, 1, 2, 4], "text": ["x", "x", "y", "y"]})
        )
        out = exact_dedup(ds).to_pandas()
        assert sorted(out["doc_id"].tolist()) == [1, 2]

    def test_minhash_candidates_finds_near_dups(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions import minhash_candidates

        base = "the quick brown fox jumps over the lazy dog and runs far away " * 4
        rows = {
            "doc_id": [1, 2, 3],
            "text": [base, base + " tail", "entirely different content with no overlap at all here"],
        }
        pairs = minhash_candidates(
            rd.from_arrow(pa.table(rows)), num_hashes=64, num_bands=16, jaccard_threshold=0.6
        ).to_pandas()
        got = set(zip(pairs["left"], pairs["right"]))
        assert (1, 2) in got
        assert all(3 not in p for p in got)

    def test_knn_bruteforce_self_is_top1(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions import knn_bruteforce

        rng = np.random.RandomState(0)
        mat = rng.standard_normal((50, 16))
        ds = rd.from_arrow(
            pa.table({"vec_id": list(range(50)), "embedding": [list(map(float, v)) for v in mat]})
        )
        out = knn_bruteforce(ds, mat[:3], k=3).to_pandas()
        for qid in range(3):
            top = out[out["query_id"] == qid].sort_values("cosine", ascending=False)
            assert top.iloc[0]["vec_id"] == qid  # self is nearest
            assert len(top) == 3

    def test_knn_lsh_subset_of_corpus(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions import knn_lsh

        rng = np.random.RandomState(1)
        mat = rng.standard_normal((80, 16))
        ds = rd.from_arrow(
            pa.table({"vec_id": list(range(80)), "embedding": [list(map(float, v)) for v in mat]})
        )
        out = knn_lsh(ds, mat[:2], k=3, num_planes=4).to_pandas()
        # self shares its own bucket → always recalled as top-1
        for qid in range(2):
            rows = out[out["query_id"] == qid].sort_values("cosine", ascending=False)
            assert rows.iloc[0]["vec_id"] == qid


class TestConnectedComponents:
    def test_chain_and_islands(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import connected_components

        pairs = rd.from_arrow(
            pa.table({"left": [1, 2, 3, 10, 20], "right": [2, 3, 4, 11, 21]})
        )
        out = {r["node"]: r["component"] for r in connected_components(pairs).take_all()}
        assert out == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20, 21: 20}

    def test_long_chain_converges_in_log_rounds(self, ray_session):
        """Pointer doubling: a 64-link chain must converge within 7 rounds
        (min-label propagation alone needs ~63)."""
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import connected_components

        pairs = rd.from_arrow(
            pa.table({"left": list(range(63)), "right": list(range(1, 64))})
        )
        out = {
            r["node"]: r["component"]
            for r in connected_components(
                pairs, max_iter=7, small_graph_threshold=0
            ).take_all()
        }
        assert set(out) == set(range(64))
        assert all(c == 0 for c in out.values())

    def test_string_keys(self, ray_session):
        """WARC/url-style string node ids work without caller pre-hashing;
        component ids are opaque but consistent per cluster."""
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import connected_components

        pairs = rd.from_arrow(
            pa.table(
                {
                    "left": ["http://a.com/1", "http://a.com/2", "http://b.org/x"],
                    "right": ["http://a.com/2", "http://a.com/3", "http://b.org/y"],
                }
            )
        )
        out = {r["node"]: r["component"] for r in connected_components(pairs).take_all()}
        assert len(out) == 5
        a = {out["http://a.com/1"], out["http://a.com/2"], out["http://a.com/3"]}
        b = {out["http://b.org/x"], out["http://b.org/y"]}
        assert len(a) == 1 and len(b) == 1 and a != b

    def test_input_pipeline_runs_once(self, ray_session, tmp_path):
        """The pair pipeline upstream of the components runs exactly once:
        reading the key type and building the edge list share one
        materialization instead of each running the upstream shuffle."""
        import ray.data as rd

        from edge_deid_studio_ray.functions.cogroup import cogroup
        from edge_deid_studio_ray.functions.dedup import connected_components

        log = tmp_path / "taps"

        def tap(t: pa.Table) -> pa.Table:
            with open(log, "a") as f:
                f.write("run\n")
            return t

        upstream = rd.from_arrow(pa.table({"left": [1, 2, 10], "right": [2, 3, 11]}))
        pairs = cogroup(
            upstream.map_batches(tap, batch_format="pyarrow", batch_size=None),
            "left",
            lambda g: g,
            {"left": pa.int64(), "right": pa.int64()},
        )
        out = {r["node"]: r["component"] for r in connected_components(pairs).take_all()}
        assert out == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}
        assert log.read_text().splitlines() == ["run"]

    def test_minhash_pairs_cluster(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import (
            connected_components,
            minhash_candidates,
        )

        base = "the quick brown fox jumps over the lazy dog and keeps running onward " * 4
        rows = {
            "doc_id": [1, 2, 3, 50],
            "text": [base, base + " x", base + " y", "totally different unrelated content here"],
        }
        pairs = minhash_candidates(
            rd.from_arrow(pa.table(rows)), num_hashes=64, num_bands=16, jaccard_threshold=0.6
        )
        comp = {r["node"]: r["component"] for r in connected_components(pairs).take_all()}
        assert comp.get(1) == comp.get(2) == comp.get(3) == 1
        assert 50 not in comp  # isolated nodes never appear in the pair graph

    def test_signature_verify_variant(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import minhash_candidates

        base = "the quick brown fox jumps over the lazy dog and keeps on running " * 4
        rows = {"doc_id": [1, 2, 9], "text": [base, base + " tail", "nothing shared at all here friend"]}
        pairs = minhash_candidates(
            rd.from_arrow(pa.table(rows)),
            num_hashes=64,
            num_bands=16,
            jaccard_threshold=0.6,
            verify="signature",
        ).to_pandas()
        got = set(zip(pairs["left"], pairs["right"]))
        assert (1, 2) in got and all(9 not in p for p in got)


class TestSimsearchVariants:
    def test_embedding_near_dups_exact(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.simsearch import embedding_near_dups

        rng = np.random.RandomState(3)
        mat = rng.standard_normal((40, 8))
        mat[7] = mat[3] + 0.01 * rng.standard_normal(8)  # a near-dup pair
        ds = rd.from_arrow(
            pa.table({"vec_id": list(range(40)), "embedding": [list(map(float, v)) for v in mat]})
        )
        pairs = embedding_near_dups(ds, threshold=0.95).to_pandas()
        got = set(zip(pairs["left"], pairs["right"]))
        assert (3, 7) in got
        for l, r in got:
            assert l < r

    def test_embedding_near_dups_block_join_matches_allpairs(self, ray_session):
        """The distributed block cross-join must emit EXACTLY the pairs a
        naive all-pairs similarity scan finds, each exactly once."""
        import ray.data as rd

        from edge_deid_studio_ray.functions.simsearch import _normalize, embedding_near_dups

        rng = np.random.RandomState(11)
        mat = rng.standard_normal((120, 12))
        ds = rd.from_arrow(
            pa.table({"vec_id": list(range(120)), "embedding": [list(map(float, v)) for v in mat]})
        )
        got = embedding_near_dups(ds, threshold=0.4, num_blocks=5).to_pandas()
        pair_list = list(zip(got["left"], got["right"]))
        assert len(pair_list) == len(set(pair_list)), "pair emitted more than once"
        nm = _normalize(mat.astype(np.float64))
        sims = nm @ nm.T
        expect = {
            (i, j) for i in range(120) for j in range(i + 1, 120) if sims[i, j] > 0.4
        }
        assert set(pair_list) == expect

    def test_embedding_near_dups_lsh_recalls_clear_pair(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.simsearch import embedding_near_dups_lsh

        rng = np.random.RandomState(13)
        mat = rng.standard_normal((60, 8))
        mat[9] = mat[4] + 0.01 * rng.standard_normal(8)  # cosine ≈ 1
        ds = rd.from_arrow(
            pa.table({"vec_id": list(range(60)), "embedding": [list(map(float, v)) for v in mat]})
        )
        pairs = embedding_near_dups_lsh(ds, threshold=0.95, num_planes=4, num_tables=8).to_pandas()
        got = set(zip(pairs["left"], pairs["right"]))
        assert (4, 9) in got
        assert len(got) == len(list(zip(pairs["left"], pairs["right"])))  # deduped across tables

    def test_knn_ivf_recalls_self(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.simsearch import knn_bruteforce, knn_ivf

        rng = np.random.RandomState(5)
        mat = rng.standard_normal((200, 16))
        ds = rd.from_arrow(
            pa.table({"vec_id": list(range(200)), "embedding": [list(map(float, v)) for v in mat]})
        )
        ivf = knn_ivf(ds, mat[:3], k=3, num_centroids=8, nprobe=8).to_pandas()
        exact = knn_bruteforce(ds, mat[:3], k=3).to_pandas()
        # nprobe == num_centroids → no pruning → identical to brute force
        for qid in range(3):
            a = ivf[ivf["query_id"] == qid].sort_values("cosine", ascending=False)["vec_id"].tolist()
            b = exact[exact["query_id"] == qid].sort_values("cosine", ascending=False)["vec_id"].tolist()
            assert a == b
        # pruned probe still recalls self as top-1
        pruned = knn_ivf(ds, mat[:3], k=3, num_centroids=8, nprobe=2).to_pandas()
        for qid in range(3):
            top = pruned[pruned["query_id"] == qid].sort_values("cosine", ascending=False)
            assert top.iloc[0]["vec_id"] == qid

    def test_knn_lsh_query_bucket_without_rows(self, ray_session):
        """A query whose sign bucket holds no row gets no neighbours: the
        merge runs over an empty, schema-less candidate set."""
        import ray.data as rd

        from edge_deid_studio_ray.functions.simsearch import knn_lsh

        ds = rd.from_arrow(
            pa.table({"vec_id": [1, 2], "embedding": [[1.0, 0.0, 0.0], [0.9, 0.1, 0.0]]})
        )
        assert knn_lsh(ds, np.array([[-1.0, 0.0, 0.0]]), k=2, num_planes=8).take_all() == []


class TestOversizedBuckets:
    def test_200_identical_texts_yield_all_pairs(self, ray_session):
        """A 200-member identical-text cluster must yield ALL 19900 pairs
        (unique-content collapse resolves what the 64-cap used to truncate),
        with truncated=False since there is only one representative."""
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import minhash_candidates

        text = "exactly the same boilerplate page content repeated verbatim " * 5
        rows = pa.table(
            {"doc_id": pa.array(list(range(200)), pa.int64()), "text": [text] * 200}
        )
        for verify in ("text", "signature"):
            pairs = minhash_candidates(
                rd.from_arrow(rows), num_hashes=64, num_bands=16, verify=verify
            ).to_pandas()
            got = set(zip(pairs["left"], pairs["right"]))
            assert len(got) == 200 * 199 // 2, verify
            assert not pairs["truncated"].any(), verify
            assert (pairs["jaccard"] == 1.0).all(), verify

    def test_simhash_identical_storm(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import simhash_near_dups

        text = "identical page body for the simhash duplicate storm case " * 4
        rows = pa.table(
            {"doc_id": pa.array(list(range(120)), pa.int64()), "text": [text] * 120}
        )
        pairs = simhash_near_dups(rd.from_arrow(rows), max_hamming=3).to_pandas()
        got = set(zip(pairs["left"], pairs["right"]))
        assert len(got) == 120 * 119 // 2
        assert (pairs["hamming"] == 0).all()


class TestPairTextMetric:
    def test_distributed_join_resolves_both_sides(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import pair_text_metric, word_ngram_jaccard

        corpus = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": ["a b c d", "a b c x", "totally different words here", None],
                }
            )
        )
        pairs = rd.from_arrow(
            pa.table(
                {
                    "left": pa.array([1, 1, 2], pa.int64()),
                    "right": pa.array([2, 3, 4], pa.int64()),
                }
            )
        )
        out = pair_text_metric(
            pairs, corpus, lambda a, b: round(word_ngram_jaccard(a, b, 2), 6), out_col="sim"
        ).to_pandas()
        got = {(l, r): s for l, r, s in zip(out["left"], out["right"], out["sim"])}
        assert len(got) == 3
        assert got[(1, 2)] == round(word_ngram_jaccard("a b c d", "a b c x", 2), 6)
        assert got[(1, 3)] == 0.0
        assert got[(2, 4)] == round(word_ngram_jaccard("a b c x", "", 2), 6)


class TestSimhashNearDups:
    def test_finds_low_hamming_pairs(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import simhash_near_dups

        base = "the quick brown fox jumps over the lazy dog while data streams flow " * 3
        rows = {
            "doc_id": [1, 2, 50],
            "text": [base, base + " tail", "utterly different material with no common words whatsoever"],
        }
        pairs = simhash_near_dups(rd.from_arrow(pa.table(rows)), max_hamming=6).to_pandas()
        got = set(zip(pairs["left"], pairs["right"]))
        assert (1, 2) in got
        assert all(50 not in p for p in got)


class TestBloomFilter:
    def test_no_false_negatives_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from edge_deid_studio_ray.functions.sketches import BloomFilter

        @given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=200))
        @settings(max_examples=30, deadline=None)
        def never_forgets(values):
            bloom = BloomFilter(num_bits=1 << 14)
            bloom.add_many(values)
            assert bloom.contains_many(values).all()

        never_forgets()

    def test_false_positive_rate_bounded(self):
        from edge_deid_studio_ray.functions.sketches import BloomFilter

        bloom = BloomFilter(num_bits=1 << 16, num_hashes=5)
        bloom.add_many(list(range(2000)))
        probes = [f"absent-{i}" for i in range(5000)]
        fp = bloom.contains_many(probes).mean()
        assert fp < 0.05, fp

    def test_merge_is_union(self):
        import numpy as np

        from edge_deid_studio_ray.functions.sketches import BloomFilter

        a = BloomFilter(num_bits=1 << 12)
        b = BloomFilter(num_bits=1 << 12)
        a.add_many([1, 2, 3])
        b.add_many([100, 200])
        a.merge_indices(b.set_indices())
        assert a.contains_many([1, 2, 3, 100, 200]).all()

    def test_distributed_build(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.sketches import build_bloom

        ds = rd.from_items([{"k": i} for i in range(500)])
        bloom = build_bloom(ds, "k", num_bits=1 << 15)
        assert bloom.contains_many(list(range(500))).all()
        assert bloom.contains_many([f"nope{i}" for i in range(200)]).mean() < 0.05


class TestSketches:
    def test_hll_approx_distinct(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.sketches import approx_distinct

        n_distinct = 5000
        table = pa.table({"v": [f"item-{i % n_distinct}" for i in range(20000)]})
        est = approx_distinct(rd.from_arrow(table), "v", p=12)
        assert abs(est - n_distinct) / n_distinct < 0.05  # ±1.6% expected at p=12

    def test_heavy_hitters_exact_counts(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.sketches import heavy_hitters

        values = ["hot"] * 500 + ["warm"] * 200 + [f"cold-{i}" for i in range(300)]
        out = heavy_hitters(rd.from_arrow(pa.table({"v": values})), "v", k=2).to_pandas()
        assert out.iloc[0]["v"] == "hot" and out.iloc[0]["n"] == 500
        assert out.iloc[1]["v"] == "warm" and out.iloc[1]["n"] == 200

    def test_reservoir_sample_size_and_determinism(self, ray_session):
        import ray.data as rd

        from edge_deid_studio_ray.functions.sketches import reservoir_sample

        ds = rd.range(5000)
        a = reservoir_sample(ds, k=100, seed=7)
        b = reservoir_sample(rd.range(5000), k=100, seed=7)
        assert len(a) == 100
        assert a == b  # same seed + same blocks → same sample
        ids = {row["id"] for row in a}
        assert len(ids) == 100


class TestBucketInvariance:
    """Partition invariance: every co-grouped dedup operator gives the same
    result when each co-group input is one block (one sorted block, one
    fold call) and when it is several."""

    def _corpus(self):
        import ray.data as rd

        base = "the quick brown fox jumps over the lazy dog and runs far away " * 4
        other = "entirely different content with no overlap at all in this one "
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": [1, 2, 3, 4, 5, 6],
                    "text": [base, base + " tail", other, other, base, "short"],
                }
            )
        )

    def test_dedup_ops_invariant(self, ray_session, split_cogroups):
        from edge_deid_studio_ray.functions.dedup import (
            connected_components,
            exact_dedup,
            minhash_candidates,
            simhash_near_dups,
        )

        results = {}
        for blocks in (1, 3):
            split_cogroups(blocks)
            ds = self._corpus()
            dd = exact_dedup(ds).to_pandas()
            mh = minhash_candidates(ds, num_hashes=64, num_bands=16, jaccard_threshold=0.6).to_pandas()
            sh = simhash_near_dups(ds, max_hamming=6).to_pandas()
            cc = connected_components(
                minhash_candidates(ds, num_hashes=64, num_bands=16, jaccard_threshold=0.6),
                small_graph_threshold=0,  # the distributed propagation path
            ).to_pandas()
            results[blocks] = (
                sorted(dd["doc_id"].tolist()),
                sorted(zip(mh["left"], mh["right"], mh["jaccard"])),
                sorted(zip(sh["left"], sh["right"], sh["hamming"])),
                sorted(zip(cc["node"], cc["component"])),
            )
        assert results[1] == results[3]
        assert results[1][1], "the corpus must yield near-dup pairs for this test to bite"

    def test_pair_text_metric_invariant(self, ray_session, split_cogroups):
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import pair_text_metric, word_ngram_jaccard

        corpus = self._corpus()
        pairs = rd.from_arrow(pa.table({"left": [1, 3], "right": [2, 4]}))
        results = {}
        for blocks in (1, 3):
            split_cogroups(blocks)
            out = pair_text_metric(
                pairs, corpus, lambda a, b: word_ngram_jaccard(a, b, 3), out_col="j"
            ).to_pandas()
            results[blocks] = sorted(zip(out["left"], out["right"], out["j"]))
        assert results[1] == results[3]


def test_pair_metrics_requires_text_verify(ray_session):
    import pytest
    import ray.data as rd

    from edge_deid_studio_ray.functions.dedup import minhash_candidates

    ds = rd.from_arrow(pa.table({"doc_id": [1], "text": ["x"]}))
    with pytest.raises(ValueError, match="pair_metrics requires"):
        minhash_candidates(ds, verify="signature", pair_metrics={"m": lambda a, b: 0.0})


def test_near_dedup_composite(ray_session):
    """Fuzzy dedup end to end: near-dup groups collapse to their min-key
    representative; unrelated docs survive."""
    import ray.data as rd

    from edge_deid_studio_ray.functions.dedup import near_dedup

    base = "the quick brown fox jumps over the lazy dog and runs far away " * 4
    other = "entirely different content with no overlap at all in this one " * 3
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": [1, 2, 3, 4, 5],
                "text": [base, base + " tail", other, base + " tiny change", "short"],
                "lang": ["en"] * 5,
            }
        )
    )
    out = near_dedup(ds, num_hashes=64, num_bands=16, jaccard_threshold=0.6).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [1, 3, 5]
    assert set(out.columns) == {"doc_id", "text", "lang"}  # schema preserved


def test_near_dedup_keeps_the_same_docs_for_string_and_int_ids(ray_session):
    """The keeper of a duplicate component is its minimum id for string ids
    too, although a string component id is an opaque hash and not a node:
    the same six docs keep the same members under either id type."""
    import ray.data as rd

    from edge_deid_studio_ray.functions.dedup import near_dedup

    dup = "the quick brown fox jumps over the lazy dog and runs far away " * 4
    texts = [dup, dup, dup, "an unrelated note about gardening and rain " * 3,
             "short", "completely different words in this last document " * 3]
    kept = {}
    for kind, ids in (("int", list(range(6))), ("str", [f"d{i}" for i in range(6)])):
        ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))
        out = near_dedup(ds, num_hashes=64, num_bands=16, jaccard_threshold=0.6).to_pandas()
        kept[kind] = sorted(out["doc_id"].tolist())
    assert kept["int"] == [0, 3, 4, 5]
    assert kept["str"] == ["d0", "d3", "d4", "d5"]


def test_cc_driver_and_distributed_paths_agree(ray_session):
    """The small-graph union-find shortcut must be byte-identical to the
    distributed pointer-doubling propagation."""
    import random

    import ray.data as rd

    from edge_deid_studio_ray.functions.dedup import connected_components

    rng = random.Random(5)
    lefts = [rng.randint(0, 99) for _ in range(150)]
    rights = [rng.randint(0, 99) for _ in range(150)]
    pairs = pa.table({"left": lefts, "right": rights})
    fast = {
        r["node"]: r["component"]
        for r in connected_components(rd.from_arrow(pairs)).take_all()
    }
    dist = {
        r["node"]: r["component"]
        for r in connected_components(
            rd.from_arrow(pairs), small_graph_threshold=0
        ).take_all()
    }
    assert fast == dist


class TestHeavyBandRescue:
    def test_within_cap_band_guarantees_pair(self, ray_session):
        """The documented LSH-cap contract: any >=tau pair with at least one
        colliding band whose group is within the cap MUST be emitted.  The
        pre-rescue gate lost 2 of the 5 guaranteed pairs on this corpus
        (first colliding band over the cap, later within-cap bands skipped
        by the first-band rule); the heavy-band-key broadcast restores the
        rescue."""
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import (
            MinHasher,
            band_keys,
            jaccard,
            minhash_candidates,
        )

        base = "the quick brown fox jumps over the lazy dog again and again " * 6
        texts = [base + f"unique tail number {i} with extra words {i*7}" for i in range(12)]
        rows = pa.table(
            {"doc_id": pa.array(list(range(12)), pa.int64()), "text": texts}
        )
        hasher = MinHasher(64)
        bks = {i: band_keys(hasher.signature(t, 5), 16) for i, t in enumerate(texts)}
        group_members: dict[str, set] = {}
        for i, keys in bks.items():
            for bk in keys:
                group_members.setdefault(bk, set()).add(i)
        cap, tau = 4, 0.5
        guaranteed = set()
        for i in range(12):
            for j in range(i + 1, 12):
                if jaccard(texts[i], texts[j], 5) < tau:
                    continue
                shared = [bk for bk in bks[i] if bk in bks[j]]
                if any(len(group_members[bk]) <= cap for bk in shared):
                    guaranteed.add((i, j))
        assert len(guaranteed) >= 3  # the corpus actually exercises the cap

        for verify in ("text", "signature"):
            pairs = minhash_candidates(
                rd.from_arrow(rows),
                num_hashes=64,
                num_bands=16,
                jaccard_threshold=tau,
                verify=verify,
                group_cap=cap,
            ).to_pandas()
            got = set(zip(pairs["left"], pairs["right"]))
            assert guaranteed <= got, (verify, sorted(guaranteed - got))


_PAIR_TYPES = {"left": pa.int64(), "right": pa.int64()}


@pytest.mark.parametrize(
    "op, expect",
    [
        ("minhash_text", {**_PAIR_TYPES, "jaccard": pa.float64(), "truncated": pa.bool_()}),
        ("minhash_signature", {**_PAIR_TYPES, "jaccard": pa.float64(), "truncated": pa.bool_()}),
        ("simhash", {**_PAIR_TYPES, "hamming": pa.int64()}),
        ("embedding", {**_PAIR_TYPES, "cosine": pa.float64()}),
        ("embedding_lsh", {**_PAIR_TYPES, "cosine": pa.float64()}),
        (
            "ngram_spans",
            {
                "doc_id": pa.int64(),
                "n_dup_ngrams": pa.int64(),
                "n_islands": pa.int64(),
                "dup_word_count": pa.int64(),
                "max_island_words": pa.int64(),
            },
        ),
    ],
)
def test_no_duplicates_give_typed_zero_rows(ray_session, op, expect):
    """A corpus with no duplicate yields zero rows of the declared columns
    and Arrow types, never a schema-less result."""
    import ray.data as rd

    from edge_deid_studio_ray.functions.corpusops import duplicate_ngram_spans
    from edge_deid_studio_ray.functions.dedup import minhash_candidates, simhash_near_dups
    from edge_deid_studio_ray.functions.simsearch import (
        embedding_near_dups,
        embedding_near_dups_lsh,
    )

    texts = [" ".join(f"w{i}x{j}" for j in range(24)) for i in range(6)]
    docs = rd.from_arrow(pa.table({"doc_id": pa.array(range(6), pa.int64()), "text": texts}))
    # orthogonal unit vectors: every pair has cosine 0
    vecs = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(6), pa.int64()),
                "embedding": [[float(i == d) for d in range(8)] for i in range(6)],
            }
        )
    )
    build = {
        "minhash_text": lambda: minhash_candidates(docs, verify="text"),
        "minhash_signature": lambda: minhash_candidates(docs, verify="signature"),
        "simhash": lambda: simhash_near_dups(docs),
        "embedding": lambda: embedding_near_dups(vecs),
        "embedding_lsh": lambda: embedding_near_dups_lsh(vecs),
        "ngram_spans": lambda: duplicate_ngram_spans(docs),
    }
    out = build[op]().materialize()
    assert out.count() == 0
    schema = out.schema()
    assert schema.names == list(expect)
    assert schema.types == list(expect.values())


class TestNearDedupNullableColumns:
    def test_survivors_keep_genuine_int_nulls(self, ray_session):
        """A corpus column with a real null must survive near_dedup (the
        dtype restore used to raise IntCastingNaNError on NaN)."""
        import ray.data as rd

        from edge_deid_studio_ray.functions.dedup import near_dedup

        rows = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    ["totally unique first document text here",
                     "second text with nothing in common at all",
                     "third one also completely different words"],
                    pa.string(),
                ),
                "score": pa.array([10, None, 30], pa.int64()),
            }
        )
        import pandas as pd

        out = near_dedup(rd.from_arrow(rows)).to_pandas().sort_values("doc_id")
        assert len(out) == 3  # no dups -> all survive
        scores = {int(r.doc_id): r.score for r in out.itertuples()}
        assert scores[1] == 10 and scores[3] == 30
        assert pd.isna(scores[2])
