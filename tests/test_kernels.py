"""Unit tests for the pure kernels (no Ray).

Case tables mirror the reference test strategy (SURVEY.md §5):
tests/pii_test_suite.py, test_contracts.py, test_anchors.py, test_replacer.py,
test_fake_provider.py.
"""

from __future__ import annotations

from edge_deid_studio_ray.config import RULES_DIR, EngineConfig
from edge_deid_studio_ray.kernels import (
    compile_rules,
    context_hash,
    fallback_generate,
    html_to_text,
    normalize_entity,
    process_document,
    regex_detect,
    replace_text,
    replacement_key,
    resolve_conflicts,
)
from edge_deid_studio_ray.kernels.anchors import attach_segment_anchors
from edge_deid_studio_ray.kernels.boilerplate import extract_main_content
from edge_deid_studio_ray.kernels.pdf_text import graft_pdf_extract_blocks
from edge_deid_studio_ray.kernels.segments import build_text_from_segments, csv_to_segments

ZH = str(RULES_DIR / "regex_zh.yaml")
EN = str(RULES_DIR / "regex_en.yaml")


class TestRegexDetect:
    def test_rule_order_is_yaml_insertion_order(self):
        types = [t for t, _, _ in compile_rules(ZH)]
        assert types[0] == "ID"
        assert types[1] == "PHONE"
        assert types[2] == "EMAIL"
        assert types[-1] == "MEDICAL_ID"
        assert types.count("ADDRESS") == 7

    def test_zh_basic_matches(self):
        text = "身分證A123456789，電話0912-345-678，信箱 test@example.com"
        ents = regex_detect(text, compile_rules(ZH))
        found = {(e["type"], text[e["span"][0]:e["span"][1]]) for e in ents}
        assert ("ID", "A123456789") in found
        assert ("PHONE", "0912-345-678") in found
        assert ("EMAIL", "test@example.com") in found
        # Python re \w matches CJK: adjacent ideographs join an email match,
        # mirroring the reference pattern's behavior.
        cjk = regex_detect("信箱test@example.com", compile_rules(ZH))
        assert ("EMAIL", (0, 18)) in {(e["type"], e["span"]) for e in cjk}
        for e in ents:
            assert e["score"] == 1.0 and e["source"] == "regex"

    def test_en_ssn_and_phone(self):
        text = "SSN 123-45-6789 phone 555-123-4567"
        ents = regex_detect(text, compile_rules(EN))
        found = {(e["type"], text[e["span"][0]:e["span"][1]]) for e in ents}
        assert ("ID", "123-45-6789") in found
        assert ("PHONE", "555-123-4567") in found

    def test_required_literal_prescreen_is_exact(self):
        """The prescreen may only claim a literal set when EVERY match must
        contain one of its members — checked against the analyzer's rules."""
        from edge_deid_studio_ray.kernels.detect import _required_literals

        # required literal through concat + trailing literal; the
        # single-member set (號) wins the tiebreak over the union (村|里) —
        # both are exact constraints, the smaller set is cheaper to test
        assert _required_literals(r"[^\n]{1,30}(村|里)x?\d+號", 0) == ("號",)
        # optional group contributes nothing
        assert _required_literals(r"\d+(abc)?\d+", 0) == ()
        # alternation where one branch has no usable literal -> nothing
        assert _required_literals(r"(abc|\d+)", 0) == ()
        # every-branch literal alternation unions
        assert _required_literals(r"x(foo|bar)y", 0) == ("bar", "foo")
        # IGNORECASE disables (substring check would need case folding)
        import re as _re

        assert _required_literals(r"(foo|bar)", _re.IGNORECASE) == ()
        assert _required_literals(r"(?i:foo)bar", 0) == ()
        # single-ASCII-char literals are not worth a prescreen
        assert _required_literals(r"\d+@\d+", 0) == ()

    def test_prescreen_preserves_detect_output(self):
        """regex_detect with the prescreen equals a raw finditer sweep on
        trigger-present, trigger-absent, and empty texts."""
        texts = [
            "台北市中山區某村3鄰5號 遠東商業大樓 7樓之2",
            "no cjk triggers 0912345678 A123456789 test@example.com 12345678",
            "台北市信義路1號 but no other triggers",
            "",
        ]
        for rules_path in (ZH, EN):
            pats = compile_rules(rules_path)
            for text in texts:
                raw = []
                for typ, pattern, _ in pats:
                    for m in pattern.finditer(text):
                        raw.append(
                            {"span": (m.start(), m.end()), "type": typ, "score": 1.0, "source": "regex"}
                        )
                assert regex_detect(text, pats) == raw

    def test_emission_order_rule_major(self):
        # EMAIL rule comes after PHONE: even though the email appears first in
        # the text, phone matches are emitted first.
        text = "a@b.com then 0912-345-678"
        ents = regex_detect(text, compile_rules(ZH))
        types = [e["type"] for e in ents]
        assert types.index("PHONE") < types.index("EMAIL")


class TestResolveConflicts:
    def test_non_overlapping_kept(self):
        ents = [
            {"span": (0, 5), "type": "PHONE", "score": 1.0, "source": "regex"},
            {"span": (10, 15), "type": "EMAIL", "score": 1.0, "source": "regex"},
        ]
        assert len(resolve_conflicts(ents)) == 2

    def test_high_overlap_resolved_by_priority(self):
        # ID (100) beats PASSPORT (95) on full overlap
        ents = [
            {"span": (0, 10), "type": "PASSPORT", "score": 1.0, "source": "regex"},
            {"span": (0, 10), "type": "ID", "score": 1.0, "source": "regex"},
        ]
        out = resolve_conflicts(ents)
        assert [e["type"] for e in out] == ["ID"]

    def test_low_overlap_keeps_both(self):
        # overlap 2 chars of min-len 10 → ratio 0.2 <= 0.5 → keep both
        ents = [
            {"span": (0, 10), "type": "ID", "score": 1.0, "source": "regex"},
            {"span": (8, 18), "type": "PHONE", "score": 1.0, "source": "regex"},
        ]
        assert len(resolve_conflicts(ents)) == 2

    def test_score_tiebreak(self):
        ents = [
            {"span": (0, 10), "type": "ID", "score": 0.7, "source": "regex"},
            {"span": (0, 10), "type": "ID", "score": 0.9, "source": "regex"},
        ]
        out = resolve_conflicts(ents)
        assert len(out) == 1 and out[0]["score"] == 0.9

    def test_shorter_source_tiebreak_and_first_wins(self):
        ents = [
            {"span": (0, 10), "type": "ID", "score": 1.0, "source": "bert_onnx"},
            {"span": (0, 10), "type": "ID", "score": 1.0, "source": "regex"},
        ]
        assert resolve_conflicts(ents)[0]["source"] == "regex"
        ents2 = [
            {"span": (0, 10), "type": "ID", "score": 1.0, "source": "regex"},
            {"span": (0, 10), "type": "ID", "score": 1.0, "source": "xegex"},
        ]
        # equal-length sources → first kept entity wins
        assert resolve_conflicts(ents2)[0]["source"] == "regex"

    def test_sequential_last_kept_semantics(self):
        # c overlaps b (kept) but not a; b loses to c; result = [a, c]
        ents = [
            {"span": (0, 4), "type": "MEDICAL_ID", "score": 1.0, "source": "regex"},
            {"span": (4, 8), "type": "MEDICAL_ID", "score": 1.0, "source": "regex"},
            {"span": (4, 8), "type": "ID", "score": 1.0, "source": "regex"},
        ]
        out = resolve_conflicts(ents)
        assert [(e["span"], e["type"]) for e in out] == [((0, 4), "MEDICAL_ID"), ((4, 8), "ID")]


class TestReplace:
    def test_deterministic_same_context(self):
        ents = [{"span": (0, 10), "type": "ID", "score": 1.0, "source": "regex"}]
        t = "A123456789 hello"
        ch = context_hash(t)
        out1, ev1 = replace_text(t, ents, "replace", context_hash=ch)
        out2, ev2 = replace_text(t, ents, "replace", context_hash=ch)
        assert out1 == out2 and ev1 == ev2

    def test_different_context_differs(self):
        ents = [{"span": (0, 10), "type": "ID", "score": 1.0, "source": "regex"}]
        t = "A123456789 hello"
        out1, _ = replace_text(t, ents, "replace", context_hash="a" * 64)
        out2, _ = replace_text(t, ents, "replace", context_hash="b" * 64)
        assert out1 != out2

    def test_right_to_left_offsets(self):
        t = "x A123456789 y 0912-345-678 z"
        ents = [
            {"span": (2, 12), "type": "ID", "score": 1.0, "source": "regex"},
            {"span": (15, 27), "type": "PHONE", "score": 1.0, "source": "regex"},
        ]
        clean, events = replace_text(t, ents, "replace", context_hash="c" * 64)
        assert "A123456789" not in clean and "0912-345-678" not in clean
        assert clean.startswith("x ") and clean.endswith(" z")
        # events emitted in descending start order
        assert events[0]["type"] == "PHONE" and events[1]["type"] == "ID"

    def test_blackbox_length_preserving(self):
        t = "id A123456789 end"
        ents = [{"span": (3, 13), "type": "ID", "score": 1.0, "source": "regex"}]
        clean, events = replace_text(t, ents, "blackbox")
        assert len(clean) == len(t)
        assert clean == "id " + "█" * 10 + " end"
        assert "original" not in events[0]

    def test_mode_aliases(self):
        t = "A123456789"
        ents = [{"span": (0, 10), "type": "ID", "score": 1.0, "source": "regex"}]
        for alias in ("black", "redact", "mask", "BLACKBOX"):
            clean, _ = replace_text(t, ents, alias)
            assert clean == "█" * 10

    def test_fallback_formats(self):
        ch = "d" * 64
        tw_id = fallback_generate("ID", "A123456789", ch, "zh_TW")
        assert len(tw_id) == 10 and tw_id[0].isalpha() and tw_id[1] in "12"
        phone = fallback_generate("PHONE", "0912345678", ch, "zh_TW")
        assert phone.startswith("09") and len(phone) == 10
        email = fallback_generate("EMAIL", "a@b.com", ch, "zh_TW")
        assert email.startswith("user") and email.endswith("@example.com")
        ssn = fallback_generate("ID", "123-45-6789", ch, "en_US")
        assert len(ssn.split("-")) == 3
        unknown = fallback_generate("WEIRD_TYPE", "x", ch, "zh_TW")
        assert unknown.startswith("<WEIRD_TYPE:") and unknown.endswith(">")


class TestContracts:
    def test_normalize_entity(self):
        e = normalize_entity(
            {"type": "ID", "span": [1, 3], "score": 0.5}, language="zh", text="abcdef"
        )
        assert e["span"] == (1, 3)
        assert e["confidence"] == 0.5 and e["score"] == 0.5
        assert e["text"] == "bc"
        assert e["source"] == "unknown" and e["language"] == "zh"

    def test_replacement_key(self):
        assert replacement_key("ID", "A123") == "ID:A123"

    def test_context_hash_sha256(self):
        import hashlib

        assert context_hash("héllo") == hashlib.sha256("héllo".encode()).hexdigest()


class TestAnchorsSegments:
    def test_segment_offsets_with_separator(self):
        text, segs = build_text_from_segments([{"text": "ab"}, {"text": "cd"}, {"text": ""}])
        assert text == "ab\ncd\n"
        assert [(s["start"], s["end"]) for s in segs] == [(0, 2), (3, 5), (6, 6)]

    def test_anchor_inside_segment(self):
        text, segs = build_text_from_segments(
            [{"text": "abc", "page_index": 0, "bbox": (1, 2, 3, 4)}, {"text": "defg", "page_index": 1}]
        )
        ents = [{"type": "ID", "span": (4, 6)}]
        attach_segment_anchors(ents, segs)
        assert ents[0]["page_index"] == 1

    def test_anchor_not_attached_across_segments(self):
        text, segs = build_text_from_segments(
            [{"text": "abc", "page_index": 0}, {"text": "def", "page_index": 1}]
        )
        ents = [{"type": "ID", "span": (1, 5)}]  # crosses the separator
        attach_segment_anchors(ents, segs)
        assert "page_index" not in ents[0]

    def test_csv_cells(self):
        specs = csv_to_segments("id,phone\nA123456789,0912345678\n")
        assert [s["cell"]["address"] for s in specs] == ["R1C1", "R1C2", "R2C1", "R2C2"]
        text, segs = build_text_from_segments(specs)
        assert text == "id\nphone\nA123456789\n0912345678"


class TestHtmlText:
    def test_basic_join(self):
        assert html_to_text("<p>a</p><p>b</p>") == "a\nb"

    def test_script_style_comments_excluded(self):
        h = "<html><head><script>var x;</script><style>.c{}</style></head><body>hi<!-- no --></body></html>"
        assert html_to_text(h) == "hi"

    def test_entities_decoded_inline(self):
        assert html_to_text("<p>a&amp;b</p>") == "a&b"

    def test_whitespace_nodes_joined(self):
        assert html_to_text("<p>a</p>\n<p>b</p>") == "a\n\n\nb"

    def test_malformed_utf8_replacement(self):
        from edge_deid_studio_ray.kernels.html_text import decode_html_bytes

        s = decode_html_bytes(b"<p>ok\xff</p>")
        assert "�" in s and html_to_text(s) == "ok�"


class TestFastHtmlScanner:
    """The fast scanner must be byte-identical to the HTMLParser collector on
    everything it ACCEPTS; anything else bails and re-parses, so output can
    never diverge.  These pins cover each accept branch + known bail cases."""

    CASES = [
        "<html><body><p>Hello &amp; goodbye</p></body></html>",
        "a < b and c > d",
        "text<",
        "<p>one<br/>two</p>",
        '<script>var x = "<p>not text</p>";</script>after',
        "<SCRIPT>hidden</SCRIPT>ok",
        "<script>no close tag at all",
        "<script/>inline shown</script>",
        "<style>body{}</style>tail",
        "<!-- comment with <p> -->text",
        "<!DOCTYPE html><p>x</p>",
        '<!doctype html PUBLIC "-//W3C">x',
        "<![CDATA[raw <b> text]]>y",
        "<![CDATA[]]>y",
        "<?php echo 1 ?>text",
        "</>empty endtag",
        "</ div>spacey",
        "</div junk>after",
        "<!bogus decl>after",
        '<a href="x>y">quoted gt</a>',
        "<a href=plain>unquoted</a>",
        "<p class>novalue</p>",
        '<p \t\n class = "x" >ws</p>',
        "<b>&notanentity;</b>",
        "&#65;&#x42;c",
        "<p>&amp</p>",
        "<p>a</p>\n  \n<p>b</p>",
        "<td>x</td junk>y",
        "< notag>plain",
        "<!---->e",
        "<!-- -- >e",
        "<p>x<!-- c --->y</p>",
    ]
    BAIL_CASES = [
        "text<x",  # unterminated start tag at EOF
        "<![cdata[lower]]>y",  # lowercase marked section
        "<a href=ht/tp>slashy</a>",  # '/' in unquoted attr value
        "<a data=x/>odd",  # ambiguous self-close after unquoted value
        "<foo@bar>odd name</foo@bar>",  # name outside the strict charset
        "<!-- unterminated",
    ]

    def test_accept_branches_match_parser(self):
        from edge_deid_studio_ray.kernels.html_text import (
            _fast_strings,
            _parser_strings,
        )

        for doc in self.CASES:
            assert _fast_strings(doc) == _parser_strings(doc), repr(doc)

    def test_bail_cases_fall_back(self):
        import pytest

        from edge_deid_studio_ray.kernels.html_text import _fast_strings, _FastBail

        for doc in self.BAIL_CASES:
            with pytest.raises(_FastBail):
                _fast_strings(doc)
            # public entry point still returns the parser's answer
            from edge_deid_studio_ray.kernels.html_text import (
                _parser_strings,
                html_to_text,
            )

            assert html_to_text(doc) == "\n".join(_parser_strings(doc))

    def test_fuzz_soup_equivalence(self):
        import random

        from edge_deid_studio_ray.kernels.html_text import (
            _fast_strings,
            _parser_strings,
            _FastBail,
        )

        rng = random.Random(7)
        atoms = [
            "<p>", "</p>", '<div class="a">', "<br/>", "text ", "&amp;",
            "&#65;", "&bad", "<", ">", '"', "'", "<script>", "</script>",
            "<style>", "</style>", "<!-- c -->", "<!--", "-->", "<![CDATA[",
            "]]>", "<!DOCTYPE html>", "<?pi?>", "</ x>", "</>", " ", "\n",
            "a=b", "/", "!", "&", ";", "<a href=x>", '<a href="q>z">',
            "é漢", "\x00", "=", "<b", "tail",
        ]
        for _ in range(3000):
            doc = "".join(rng.choice(atoms) for _ in range(rng.randint(1, 25)))
            try:
                fast = _fast_strings(doc)
            except _FastBail:
                continue
            assert fast == _parser_strings(doc), repr(doc)

    def test_synthetic_corpus_equivalence(self):
        from edge_deid_studio_ray.kernels.html_text import (
            _fast_strings,
            _parser_strings,
            _FastBail,
            decode_html_bytes,
        )
        from edge_deid_studio_ray.sources.pages import synthesize_pages_table

        tbl = synthesize_pages_table(list(range(2000)))
        bails = 0
        for h in tbl["html"]:
            raw = h.as_py()
            if not raw:
                continue
            doc = decode_html_bytes(raw)
            try:
                fast = _fast_strings(doc)
            except _FastBail:
                bails += 1
                continue
            assert fast == _parser_strings(doc)
        assert bails < 100  # fast path must cover the overwhelming majority


class TestPdfBlocks:
    def test_sorting_and_filtering(self):
        import json

        blocks = [
            {"page": 1, "bbox": [10, 50, 100, 70], "btype": 0, "text": "page1"},
            {"page": 0, "bbox": [10, 200, 100, 220], "btype": 0, "text": "low"},
            {"page": 0, "bbox": [10, 50, 100, 70], "btype": 0, "text": " high "},
            {"page": 0, "bbox": [0, 0, 5, 5], "btype": 1, "text": "img"},
            {"page": 0, "bbox": [0, 0, 5, 5], "btype": 0, "text": "   "},
        ]
        raw = ("%PDF-GRAFT1\n" + "\n".join(json.dumps(b) for b in blocks)).encode()
        specs = graft_pdf_extract_blocks(raw)
        assert [s["text"] for s in specs] == ["high", "low", "page1"]
        assert specs[0]["page_index"] == 0 and specs[0]["bbox"] == (10, 50, 100, 70)


class TestBoilerplate:
    def test_nav_footer_stripped(self):
        html = (
            "<html><body><nav><a href='/'>Home</a> <a href='/a'>About</a></nav>"
            "<div><p>This is a long enough content paragraph about data engines.</p></div>"
            "<footer><a href='/p'>Privacy</a></footer></body></html>"
        )
        out = extract_main_content(html)
        assert "content paragraph" in out
        assert "Home" not in out and "Privacy" not in out

    def test_link_dense_block_dropped(self):
        html = "<body><p><a href='/1'>one two three four five six seven eight</a></p><p>Real sentence content that is definitely long enough.</p></body>"
        out = extract_main_content(html)
        assert "Real sentence" in out and "one two three" not in out


class TestProcessDocument:
    def test_text_passthrough_route(self):
        row = process_document(text="call 0912-345-678", lang="zh")
        assert row["route"] == "text"
        assert row["n_spans"] == 1
        assert row["entities"][0]["type"] == "PHONE"
        assert "0912-345-678" not in row["clean_text"]
        assert row["events"][0]["original"] == "0912-345-678"

    def test_blackbox_mode_events_empty_map(self):
        cfg = EngineConfig(mode="blackbox")
        row = process_document(text="id A123456789", lang="zh", cfg=cfg)
        assert "█" in row["clean_text"]
        assert row["events"] == [] and row["replacement_map"] == {}
        assert len(row["clean_text"]) == len(row["extracted_text"])

    def test_html_route(self):
        row = process_document(html=b"<p>mail a@b.com</p>", lang="zh")
        assert row["route"] == "html"
        assert row["extracted_text"] == "mail a@b.com"
        assert row["entities"][0]["type"] == "EMAIL"

    def test_deterministic_across_calls(self):
        a = process_document(text="A123456789 and 0912-345-678", lang="zh")
        b = process_document(text="A123456789 and 0912-345-678", lang="zh")
        timing_keys = {"t_extract_ms", "t_detect_ms", "t_replace_ms"}
        assert {k: v for k, v in a.items() if k not in timing_keys} == {
            k: v for k, v in b.items() if k not in timing_keys
        }


class TestMainContentGolden:
    def test_golden_hashes(self):
        """Golden regression pin for the boilerplate-strip mode (the
        reference has no such operator, SURVEY §7.1 — these fixtures ARE the
        oracle; regenerate tests/golden/main_content_hashes.json explicitly
        when the heuristics change on purpose)."""
        import json
        import os

        from edge_deid_studio_ray.functions.dedup import md5_hex
        from edge_deid_studio_ray.kernels.docpipe import extract_page
        from edge_deid_studio_ray.sources.pages import synthesize_page

        path = os.path.join(os.path.dirname(__file__), "golden", "main_content_hashes.json")
        golden = json.load(open(path))
        for key, expected in golden.items():
            page = synthesize_page(int(key))
            text, _, route, _ = extract_page(
                page["html"], page["text"], url=page["url"], extract_mode="main_content"
            )
            assert route == expected["route"], key
            assert md5_hex(text) == expected["main_md5"], key


class TestImageprocKernels:
    """OCR preprocessing parity kernels (reference parser/ocr.py:79-93)
    against hand-computed arrays."""

    def test_bgr_to_gray_fixed_point(self):
        import numpy as np

        from edge_deid_studio_ray.kernels.imageproc import bgr_to_gray

        # hand-computed: (R*4899 + G*9617 + B*1868 + 8192) >> 14
        img = np.array([[[10, 200, 30]]], dtype=np.uint8)  # B=10 G=200 R=30
        expected = (30 * 4899 + 200 * 9617 + 10 * 1868 + 8192) >> 14
        assert bgr_to_gray(img)[0, 0] == expected
        # pure colors
        white = np.full((2, 2, 3), 255, dtype=np.uint8)
        assert (bgr_to_gray(white) == 255).all()
        gray_in = np.array([[7, 9]], dtype=np.uint8)
        assert (bgr_to_gray(gray_in) == gray_in).all()

    def test_gaussian_kernel_opencv_sigma(self):
        import numpy as np

        from edge_deid_studio_ray.kernels.imageproc import gaussian_kernel1d

        k = gaussian_kernel1d(11)
        assert abs(k.sum() - 1.0) < 1e-12
        # OpenCV default sigma for ksize=11: 0.3*((11-1)*0.5 - 1) + 0.8 = 2.0
        sigma = 2.0
        xs = np.arange(11) - 5.0
        manual = np.exp(-(xs**2) / (2 * sigma * sigma))
        manual /= manual.sum()
        assert np.allclose(k, manual)

    def test_adaptive_threshold_flat_image(self):
        import numpy as np

        from edge_deid_studio_ray.kernels.imageproc import adaptive_threshold_gaussian

        # flat image: mean == value everywhere, so value > value - 2 → 255
        flat = np.full((8, 8), 100, dtype=np.uint8)
        assert (adaptive_threshold_gaussian(flat) == 255).all()

    def test_adaptive_threshold_dark_spot(self):
        import numpy as np

        from edge_deid_studio_ray.kernels.imageproc import adaptive_threshold_gaussian

        # a dark pixel in a bright field falls below the local mean - C
        img = np.full((15, 15), 200, dtype=np.uint8)
        img[7, 7] = 0
        out = adaptive_threshold_gaussian(img)
        assert out[7, 7] == 0
        assert out[0, 0] == 255  # far corner unaffected

    def test_median_blur3_hand_computed(self):
        import numpy as np

        from edge_deid_studio_ray.kernels.imageproc import median_blur3

        img = np.array(
            [[1, 2, 3],
             [4, 100, 6],
             [7, 8, 9]], dtype=np.uint8)
        out = median_blur3(img)
        # center: median of all nine = median(1..9,100 minus 5) = 6
        assert out[1, 1] == np.median([1, 2, 3, 4, 100, 6, 7, 8, 9])
        # corner (replicate border): neighborhood {1,1,2,1,1,2,4,4,100}
        assert out[0, 0] == np.median([1, 1, 2, 1, 1, 2, 4, 4, 100])

    def test_median_kills_salt_noise(self):
        import numpy as np

        from edge_deid_studio_ray.kernels.imageproc import ocr_preprocess

        # single-pixel noise survives thresholding but dies in the median
        img = np.full((15, 15, 3), 220, dtype=np.uint8)
        img[7, 7] = 0
        out = ocr_preprocess(img)
        assert out.shape == (15, 15)
        assert out[7, 7] == 255  # salt removed
        assert set(np.unique(out)) <= {0, 255}


class TestExtractLinks:
    def test_semantics(self):
        from edge_deid_studio_ray.kernels.html_text import extract_links

        # anchor text spans nested tags; entities decode
        assert extract_links('<a href="/x">one <b>two</b></a>') == [("/x", "one two")]
        assert extract_links('<a href="q">amp &amp; tail') == [("q", "amp & tail")]
        # <a> without href is not a link
        assert extract_links("<a>no href</a>") == []
        # implicit close on nested <a> (browser behavior)
        assert extract_links("<a href=a>first<a href=b>second</a>") == [
            ("a", "first"),
            ("b", "second"),
        ]
        # self-closing anchor yields an empty-text link
        assert extract_links('<a href="z"/>tail') == [("z", "")]
        # tolerant parse folds '/' into an unquoted value (html.parser rule)
        assert extract_links("<a href=y/>") == [("y/", "")]
        assert extract_links("<p>none</p>") == []
        # script/style bodies are NOT anchor text
        assert extract_links('<a href=x><script>var y;</script>z</a>') == [("x", "z")]
        assert extract_links('<a href=x><style>.c{}</style>t</a>') == [("x", "t")]

    def test_document_order_and_corpus_determinism(self):
        from edge_deid_studio_ray.kernels.html_text import (
            decode_html_bytes,
            extract_links,
        )
        from edge_deid_studio_ray.sources.pages import synthesize_pages_table

        tbl = synthesize_pages_table(list(range(200)))
        runs = []
        for _ in range(2):
            acc = []
            for h in tbl["html"]:
                raw = h.as_py()
                if raw:
                    acc.append(tuple(extract_links(decode_html_bytes(raw))))
            runs.append(acc)
        assert runs[0] == runs[1]
        assert any(len(links) > 0 for links in runs[0])


class TestLangVariantRouting:
    def test_bcp47_variants_route_to_zh_rules(self):
        from edge_deid_studio_ray.config import EngineConfig

        cfg = EngineConfig()
        zh = cfg.rules_path("zh")
        for variant in ("zh-TW", "zh_Hant", "ZH", "zh-Hans-CN"):
            assert cfg.rules_path(variant) == zh, variant
        assert cfg.rules_path("en") != zh
        assert cfg.rules_path("") != zh

    def test_zh_tw_page_detects_taiwanese_pii(self):
        from edge_deid_studio_ray.kernels.docpipe import process_document

        row = process_document(text="聯絡電話 0912-345-678 謝謝", lang="zh-TW")
        types = {e["type"] for e in row["entities"]}
        assert "PHONE" in types  # en rules would have missed the 4-3-3 format


class TestOcrEmptyKeepsExtractedText:
    def test_blank_scan_keeps_real_blocks(self):
        """OCR returning '' for a short page must KEEP the page's genuinely
        extracted text, not erase it."""
        from edge_deid_studio_ray.config import EngineConfig
        from edge_deid_studio_ray.kernels.docpipe import extract_page

        import edge_deid_studio_ray.kernels.docpipe as dp

        class EmptyOcr:
            def read(self, raw):
                return "", []

        orig = dp._resolve_ocr_backend
        dp._resolve_ocr_backend = lambda name: EmptyOcr() if name else None
        try:
            from tests.test_minipdf import build_pdf

            pdf = build_pdf([b"BT /F1 12 Tf 72 720 Td (short but real) Tj ET\n"])
            text, _segs, route, _err = extract_page(
                pdf, None, pdf_ocr="fake", ocr_threshold=50
            )
        finally:
            dp._resolve_ocr_backend = orig
        assert "short but real" in text
