"""Property tests for the session-3 shared contracts — pure-Python /
DuckDB-only (no Ray), so hypothesis can afford hundreds of examples.

Each pins a contract that TWO independent implementations must agree on:
the Python engine side and the SQL oracle side (or exact brute force)."""

from __future__ import annotations

import duckdb
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


class TestOutlinkContract:
    """_resolve_outlinks (shared by pagerank/HITS/reciprocity/in-degree)
    must match the oracle CTE's href-resolution rules on arbitrary hrefs."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.from_regex(r"https?://[a-z]{1,8}\.example/[a-z0-9]{0,6}", fullmatch=True),
                st.from_regex(r"/[a-z0-9]{0,8}", fullmatch=True),
                st.from_regex(r"[a-z]{1,8}", fullmatch=True),  # bare relative: dropped
                st.just(""),
            ),
            max_size=8,
        )
    )
    def test_matches_sql_resolution(self, hrefs):
        from edge_deid_studio_ray.pipelines.queries import _resolve_outlinks

        url = "https://src.example/page"
        html = "".join(f'<a href="{h}">x</a>' for h in hrefs).encode()
        got = _resolve_outlinks(url, html)

        con = duckdb.connect()
        rows = con.sql(
            """
            WITH hrefs AS (SELECT unnest(?) AS href),
            edges0 AS (
              SELECT DISTINCT
                CASE WHEN href LIKE 'http://%' OR href LIKE 'https://%' THEN href
                     WHEN href LIKE '/%' THEN regexp_extract(?, '^(https?://[^/]+)', 1) || href
                     ELSE NULL END AS dst
              FROM hrefs)
            SELECT dst FROM edges0 WHERE dst IS NOT NULL AND dst <> ?
            """,
            params=[list(hrefs), url, url],
        ).fetchall()
        assert got == {r[0] for r in rows}


class TestMortonContract:
    """The numpy bit-interleave must equal the oracle's list_sum bit-op
    comprehension for every 8-bit pair."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255))
    def test_matches_sql_interleave(self, qx, qy):
        con = duckdb.connect()
        z_sql = con.sql(
            "SELECT list_sum([(((? >> i) & 1) << (2*i)) + (((? >> i) & 1) << (2*i+1)) "
            "for i in range(0, 8)])",
            params=[qx, qy],
        ).fetchone()[0]
        z_py = 0
        for i in range(8):
            z_py |= ((qx >> i) & 1) << (2 * i)
            z_py |= ((qy >> i) & 1) << (2 * i + 1)
        # and the vectorized engine form
        a = np.array([qx], dtype=np.int64)
        b = np.array([qy], dtype=np.int64)
        z_np = np.zeros_like(a)
        for i in range(8):
            z_np |= ((a >> i) & 1) << (2 * i)
            z_np |= ((b >> i) & 1) << (2 * i + 1)
        assert z_sql == z_py == int(z_np[0])

    def test_zorder_square_queries_touch_fewer_blocks(self):
        """The audit's premise, measured the way zone maps care about it:
        an 8×8 square query over a 32×32 grid laid out in 64-row blocks
        touches 1 block under Morton order vs 4 under row-major.  (Note
        the average neighbor RANK GAP is identical for both layouts —
        block co-residency, not rank distance, is what pruning sees.)"""
        xs = np.repeat(np.arange(32), 32)
        ys = np.tile(np.arange(32), 32)
        z = np.zeros_like(xs)
        for i in range(8):
            z |= ((xs >> i) & 1) << (2 * i)
            z |= ((ys >> i) & 1) << (2 * i + 1)
        rm = xs * 32 + ys

        def blocks_per_square(rank, B=64):
            order = np.argsort(rank, kind="mergesort")
            pos = np.empty_like(order)
            pos[order] = np.arange(len(order))
            blk = pos // B
            tot = n = 0
            for x0 in range(0, 32, 8):
                for y0 in range(0, 32, 8):
                    m = (xs >= x0) & (xs < x0 + 8) & (ys >= y0) & (ys < y0 + 8)
                    tot += len(np.unique(blk[m]))
                    n += 1
            return tot / n

        assert blocks_per_square(z) == 1.0
        assert blocks_per_square(rm) == 4.0


class TestVocabCoverageBoundary:
    """The integer boundary arithmetic must give the MINIMAL k for any
    frequency histogram (brute-force cross-check)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 50), st.integers(1, 20)), min_size=1, max_size=12
        )
    )
    def test_minimal_k(self, hist_pairs):
        # collapse duplicate freq values like the engine's grouped fold
        hist: dict[int, int] = {}
        for f, nw in hist_pairs:
            hist[f] = hist.get(f, 0) + nw
        rows = sorted(hist.items(), key=lambda t: -t[0])
        total = sum(f * nw for f, nw in rows)
        # engine arithmetic
        cum = 0
        k = 0
        for f, nw in rows:
            if 100 * (cum + f * nw) >= 90 * total:
                need = (90 * total - 100 * cum + 100 * f - 1) // (100 * f)
                k += int(need)
                break
            cum += f * nw
            k += nw
        # brute force: expand to individual word frequencies
        freqs = [f for f, nw in rows for _ in range(nw)]
        run = 0
        brute = 0
        for f in freqs:
            run += f
            brute += 1
            if 100 * run >= 90 * total:
                break
        assert k == brute


class TestTimelineContract:
    """``_timeline`` (the one sort behind every per-user events fold) must
    equal a per-user pandas reference: a stable sort of each user's rows by
    the order columns, users ascending, and a start mask set on each user's
    first row and, with a gap, on each row more than the gap after the
    previous one.  Timestamps are multiples of half the session gap plus 0
    or 1 µs, so ties, gaps of exactly the session gap (the session stays
    open) and gaps one µs over it all occur; one-event users are common."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 6),
                st.integers(0, 1),
                st.sampled_from(["click", "view", "purchase"]),
            ),
            max_size=40,
        ),
        st.sampled_from([["us", "event_id"], ["us"], ["us", "event_type"], ["event_type", "us", "event_id"]]),
        st.booleans(),
    )
    def test_matches_per_user_reference(self, rows, order, with_gap):
        import pandas as pd

        from edge_deid_studio_ray.pipelines.queries import _SESSION_GAP_US, _timeline

        half = _SESSION_GAP_US // 2
        bucket = pd.DataFrame(
            {
                "user_id": np.array([r[0] for r in rows], dtype=np.int64),
                "us": np.array([r[1] * half + r[2] for r in rows], dtype=np.int64),
                "event_id": np.arange(len(rows), dtype=np.int64)[::-1].copy(),
                "event_type": pd.Series([r[3] for r in rows], dtype=object),
            }
        )
        gap = _SESSION_GAP_US if with_gap else None
        got, start = _timeline(bucket, order, gap)

        parts, starts = [], []
        for _, g in bucket.groupby("user_id", sort=True):
            g = g.sort_values(order, kind="stable")
            us = g["us"].to_numpy()
            s = np.zeros(len(g), dtype=bool)
            s[0] = True
            if gap is not None:
                s[1:] = np.diff(us) > gap
            parts.append(g)
            starts.append(s)
        expect = pd.concat(parts, ignore_index=True) if parts else bucket.iloc[:0]
        assert got.reset_index(drop=True).equals(expect.reset_index(drop=True))
        assert start.tolist() == (np.concatenate(starts).tolist() if starts else [])

    def test_zero_rows_and_exact_gap(self):
        import pandas as pd

        from edge_deid_studio_ray.pipelines.queries import _SESSION_GAP_US, _sessionize, _timeline

        empty = pd.DataFrame({"user_id": np.array([], np.int64), "us": np.array([], np.int64)})
        got, start = _timeline(empty, ["us"], _SESSION_GAP_US)
        assert len(got) == 0 and start.dtype == bool and len(start) == 0
        assert len(_sessionize(empty, _SESSION_GAP_US)) == 0

        # a gap of exactly the session gap keeps the session open; one µs
        # more opens a new one
        us = np.array([0, _SESSION_GAP_US, 2 * _SESSION_GAP_US + 1], dtype=np.int64)
        frame = pd.DataFrame({"user_id": np.zeros(3, np.int64), "us": us})
        _, start = _timeline(frame, ["us"], _SESSION_GAP_US)
        assert start.tolist() == [True, False, True]
        sessions = _sessionize(frame, _SESSION_GAP_US)
        assert sessions["n_events"].tolist() == [2, 1]
