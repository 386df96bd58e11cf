"""Crafted-case tests for the session-11 operators: vectorized URL
canonicalization (+ dedup grouping), DSIR importance scoring, EWMA
exponential smoothing. The parametrized oracle mirror
(test_queries_oracle) hash-checks them against DuckDB; these pin the
SEMANTICS on inputs constructed to hit the edges."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _write_docs(tmp_path, rows):
    t = pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "text": pa.array([r[0] for r in rows], pa.string()),
        "lang": pa.array(["en"] * len(rows), pa.string()),
        "source": pa.array([r[1] for r in rows], pa.string()),
        "n_chars": pa.array([len(r[0]) for r in rows], pa.int64()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def _write_events(tmp_path, rows):
    t = pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array([r[0] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array(["view"] * len(rows), pa.string()),
        "value": pa.array([r[2] for r in rows], pa.float64()),
        "props": pa.array([""] * len(rows), pa.string()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    return str(tmp_path)


def test_canonicalize_vectorized_matches_scalar():
    """The batch canonicalizer must equal the scalar urlsplit path:
    the messy synthetic corpus plus handcrafted edges (bare host, bare
    '?', default/explicit ports, fragments, surrounding whitespace,
    deep paths) and rows off the vectorized shape (no scheme, IPv6
    literal, userinfo)."""
    from crawling_infrastructure_ray.functions.urltools import (
        canonicalize_url, canonicalize_urls_series)
    from crawling_infrastructure_ray.pipelines.training import \
        _messy_urls_np

    urls = list(_messy_urls_np(np.arange(5000, dtype=np.int64)))
    urls += [
        "HTTP://WWW.EDGE.COM:80/p?a=1&b=2#f",
        "https://edge.com:443", "https://edge.com:8443",
        "http://edge.com?", "http://edge.com?#f",
        "  http://Pad.com/x  ", "https://h.com/#only-frag",
        "http://h.com:8080", "http://h.com:8080/",
        "https://deep.com/a/b/c?q=1&q=2",
        # off the vectorized shape: the scalar parser takes these rows
        "http://[::1]:80/x", "a.com/x", "a.com:81/x",
        "http://User:pw@Edge.com:80/u",
    ]
    got = canonicalize_urls_series(pd.Series(urls, dtype="object"))
    want = [canonicalize_url(u) for u in urls]
    mism = [(u, g, w) for u, g, w in zip(urls, got, want) if g != w]
    assert not mism, mism[:5]


def test_url_dedup_groups_vs_brute(ray_session, tmp_path):
    """Group table equals a sequential-Python oracle (scalar
    canonicalizer + dict grouping) on 400 docs, and case/port/fragment
    variants genuinely collapse (some group has n_forms > 1)."""
    from crawling_infrastructure_ray.functions.urltools import \
        canonicalize_url
    from crawling_infrastructure_ray.pipelines.training import (
        _messy_urls_np, q_url_canonical_dedup)

    n = 400
    sf = _write_docs(tmp_path, [("t", "s")] * n)
    out = q_url_canonical_dedup(sf).to_pandas() \
        .sort_values("canonical_url").reset_index(drop=True)

    messy = list(_messy_urls_np(np.arange(n, dtype=np.int64)))
    groups = {}
    for i, u in enumerate(messy):
        c = canonicalize_url(u)
        g = groups.setdefault(c, {"n": 0, "forms": set(), "min": i})
        g["n"] += 1
        g["forms"].add(u)
        g["min"] = min(g["min"], i)
    want = pd.DataFrame(
        [(c, g["n"], len(g["forms"]), g["min"])
         for c, g in sorted(groups.items())],
        columns=["canonical_url", "n_urls", "n_forms", "keeper_doc"])
    pd.testing.assert_frame_equal(
        out[want.columns], want, check_dtype=False)
    assert (out["n_forms"] > 1).any()  # variants actually collapsed
    assert out["n_urls"].sum() == n


def test_ewma_brute(ray_session, tmp_path):
    """ewma16_c equals the brute per-row weighted sum; user boundaries
    and the 16-term truncation are respected; equal-ts ties break by
    event_id."""
    from crawling_infrastructure_ray.pipelines.analytics import \
        q_events_ewma

    rows = []
    # user 1: 20 events (window truncates at 16); two share ts=500
    for k in range(20):
        rows.append((500 if k in (4, 5) else k * 1000, 1,
                     float(k + 1) + 0.25))
    # user 2: 3 events interleaved in time with user 1's
    for k in range(3):
        rows.append((k * 1500 + 100, 2, 10.0 * (k + 1)))
    sf = _write_events(tmp_path, rows)
    out = q_events_ewma(sf).to_pandas().set_index("event_id") \
        .sort_index()

    df = pd.DataFrame(rows, columns=["ts", "user_id", "value"])
    df["event_id"] = range(len(df))
    df["vc"] = (df["value"] * 100).round().astype("int64")
    df = df.sort_values(["user_id", "ts", "event_id"]) \
        .reset_index(drop=True)
    for u in df["user_id"].unique():
        sub = df[df["user_id"] == u].reset_index(drop=True)
        for i in range(len(sub)):
            want = sum(int(sub["vc"][i - j]) * (1 << (15 - j))
                       for j in range(16) if i - j >= 0)
            eid = int(sub["event_id"][i])
            assert int(out.loc[eid, "ewma16_c"]) == want, (u, eid)


def test_dsir_prefers_target_like_docs(ray_session, tmp_path):
    """Scores equal a sequential dict-based brute, and a doc written
    in the target source's bigram distribution outscores one written
    in the other source's (per bigram, normalized by length)."""
    from crawling_infrastructure_ray.pipelines.training import \
        q_dsir_importance

    # target = min(source) = 'a'. 'a' docs talk about "big data",
    # 'z' docs about "slow sort"; doc 4 ('z' source, target-like text)
    # must outscore doc 5 ('z' source, raw-like text) per bigram.
    rows = [
        ("big data big data big data", "a"),
        ("big data pipeline", "a"),
        ("slow sort slow sort slow sort", "z"),
        ("slow sort merge", "z"),
        ("big data big data", "z"),
        ("slow sort slow sort", "z"),
        ("x", "z"),  # < 2 tokens: excluded
    ]
    sf = _write_docs(tmp_path, rows)
    out = q_dsir_importance(sf).set_index("doc_id")
    assert 6 not in out.index  # single-token doc excluded

    # sequential brute
    docs = [(i, r[0].split(), r[1]) for i, r in enumerate(rows)]
    pairs = [(i, (t[k], t[k + 1])) for i, t, s in docs
             for k in range(len(t) - 1)]
    c_r, c_t = {}, {}
    n_r = n_t = 0
    for i, b in pairs:
        c_r[b] = c_r.get(b, 0) + 1
        n_r += 1
        if docs[i][2] == "a":
            c_t[b] = c_t.get(b, 0) + 1
            n_t += 1
    for i, toks, s in docs:
        bgs = [(toks[k], toks[k + 1]) for k in range(len(toks) - 1)]
        if not bgs:
            continue
        want = sum((10000 * (c_t.get(b, 0) + 1) * (n_r + 1))
                   // ((c_r[b] + 1) * (n_t + 1)) for b in bgs)
        assert int(out.loc[i, "dsir_score"]) == want, i
        assert int(out.loc[i, "n_bigrams"]) == len(bgs)

    per_bg = out["dsir_score"] / out["n_bigrams"]
    assert per_bg.loc[4] > per_bg.loc[5]


def test_late_event_flags_brute(ray_session, tmp_path):
    """Out-of-order arrivals: watermark is per-user max over EARLIER
    event_ids; late iff ts + 1h < watermark; boundary (exactly 1h
    late) is NOT late."""
    from crawling_infrastructure_ray.pipelines.analytics import \
        q_late_event_flags

    H = 3_600_000_000
    rows = [
        (10 * H, 1, 1.0),       # e0: wm None
        (2 * H, 1, 1.0),        # e1: wm 10H, lateness 8H -> late
        (9 * H, 1, 1.0),        # e2: wm 10H, lateness 1H -> boundary, NOT late
        (9 * H - 1, 1, 1.0),    # e3: lateness 1H+1us -> late
        (11 * H, 1, 1.0),       # e4: ahead -> not late
        (5 * H, 2, 1.0),        # other user: own watermark
        (1 * H, 2, 1.0),        # late by 4H
    ]
    out = q_late_event_flags(_write_events(tmp_path, rows)) \
        .to_pandas().set_index("user_id").sort_index()
    assert out.loc[1, "n_events"] == 5
    assert out.loc[1, "n_late"] == 2
    assert out.loc[1, "max_lateness_us"] == 8 * H
    assert out.loc[2, "n_events"] == 2
    assert out.loc[2, "n_late"] == 1
    assert out.loc[2, "max_lateness_us"] == 4 * H


def test_value_trend_brute(ray_session, tmp_path):
    """Exact rational slope: a user with perfectly linear
    value-vs-hour must give slope_num/slope_den == the true slope; a
    constant user gives slope_num == 0; a single-event user gives
    den == 0 (undefined fit stays explicit, no division happens)."""
    from crawling_infrastructure_ray.pipelines.analytics import (
        REGR_EPOCH_US, q_value_trend_per_user)

    H = 3_600_000_000
    rows = []
    # user 1: value = 2.0 + 0.5 * hour (cents: 200 + 50x), x = 0..4
    for x in range(5):
        rows.append((REGR_EPOCH_US - REGR_EPOCH_US + x * H, 1,
                     2.0 + 0.5 * x))
    # user 2: constant
    for x in range(3):
        rows.append((x * H, 2, 7.0))
    # user 3: one event
    rows.append((2 * H, 3, 1.0))
    out = q_value_trend_per_user(_write_events(tmp_path, rows)) \
        .set_index("user_id")
    # slope in cents/hour = 50 -> num/den == 50
    assert out.loc[1, "slope_num"] / out.loc[1, "slope_den"] == 50.0
    assert out.loc[2, "slope_num"] == 0 and out.loc[2, "slope_den"] > 0
    assert out.loc[3, "slope_den"] == 0


def test_frame_plan_edges():
    """dur=0 video yields no frames; non-video rows filtered; frame
    count is ceil(dur/step)."""
    import pyarrow as pa

    from crawling_infrastructure_ray.stages.multimodal import \
        frame_sample_plan

    t = pa.table({
        "media_ref": pa.array(["a", "b", "c", "d"], pa.string()),
        "media_type": pa.array(["video", "image", "video", "video"]),
        "duration_ms": pa.array([0, 99999, 1, 2500], pa.int32())})
    out = frame_sample_plan(t, every_ms=1000).to_pandas()
    assert list(out["media_ref"]) == ["c", "d", "d", "d"]
    assert list(out["frame_ts_ms"]) == [0, 0, 1000, 2000]


def test_collocation_stats_crafted(ray_session, tmp_path):
    """Pin the pair-count filter and BOTH unigram joins: an alternating
    a/b doc yields asymmetric pair counts (6 vs 5) over identical
    unigram counts; a sub-threshold pair must not appear."""
    from crawling_infrastructure_ray.pipelines.training import \
        q_collocation_stats

    sf = _write_docs(tmp_path, [
        ("a b a b a b a b a b a b", "s0"),   # (a,b)x6, (b,a)x5
        ("c d", "s0"),                        # (c,d)x1 -> filtered
    ])
    out = q_collocation_stats(sf)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    out = out.sort_values(["token_a", "token_b"]).reset_index(drop=True)
    assert out[["token_a", "token_b"]].values.tolist() == [
        ["a", "b"], ["b", "a"]]
    assert out["c_ab"].tolist() == [6, 5]
    assert out["c_a"].tolist() == [6, 6]
    assert out["c_b"].tolist() == [6, 6]
    assert out["cond_ab_e6"].tolist() == [1_000_000, 833_333]


def test_sorted_neighborhood_halo_blocks(ray_session, tmp_path):
    """Force rank windows ACROSS comparison-block boundaries (block=8,
    40 docs with heavy n_chars ties) and compare against the brute
    O(n^2) definition: pairs at most SNB_WINDOW apart in the global
    (n_chars, doc_id) order."""
    from crawling_infrastructure_ray.pipelines.training import (
        SNB_WINDOW, q_sorted_neighborhood_pairs)

    rows = [("x" * (5 + (i * 7) % 4), "s0") for i in range(40)]
    sf = _write_docs(tmp_path, rows)
    out = q_sorted_neighborhood_pairs(sf, block=8)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    got = set(map(tuple, out[["doc_a", "doc_b", "rank_diff",
                              "chars_diff"]].values.tolist()))

    order = sorted((len(t), i) for i, (t, _) in enumerate(rows))
    want = set()
    for a in range(len(order)):
        for d in range(1, SNB_WINDOW + 1):
            if a + d < len(order):
                (nca, ia), (ncb, ib) = order[a], order[a + d]
                want.add((ia, ib, d, abs(ncb - nca)))
    assert got == want and len(want) > 100


def test_rank_fusion_brute(ray_session, tmp_path):
    """Brute-force RRF on a crafted corpus with heavy ties in BOTH
    rankings (many equal lengths / token counts) — pins the 1-based
    DESC rank assignment, the doc_id tie-break, and the integer
    floor-division fusion."""
    from crawling_infrastructure_ray.pipelines.training import (
        RRF_K, RRF_TOPK, q_rank_fusion)

    texts = []
    for i in range(30):
        n_tok = 1 + (i * 3) % 5
        tok = "t" * (1 + (i * 7) % 4)
        texts.append((" ".join([tok] * n_tok), "s0"))
    sf = _write_docs(tmp_path, texts)
    out = q_rank_fusion(sf)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()

    feats = [(len(t), len(t.split()), i) for i, (t, _) in enumerate(texts)]
    order1 = sorted(feats, key=lambda x: (-x[0], x[2]))
    order2 = sorted(feats, key=lambda x: (-x[1], x[2]))
    r1 = {d: i + 1 for i, (_, _, d) in enumerate(order1)}
    r2 = {d: i + 1 for i, (_, _, d) in enumerate(order2)}
    fused = sorted(
        ((10**9 // (RRF_K + r1[d]) + 10**9 // (RRF_K + r2[d]), d)
         for d in r1), key=lambda x: (-x[0], x[1]))[:RRF_TOPK]
    want = [(d, r1[d], r2[d], s) for s, d in fused]
    got = list(map(tuple, out[["doc_id", "r1", "r2",
                               "rrf_e9"]].values.tolist()))
    assert got == want


def test_ppjoin_equals_plain_inverted_index(ray_session, tmp_path):
    """The prefix-filtered plan must produce EXACTLY the plain
    inverted-index plan's pairs on a crafted corpus with near-dups at
    several overlap levels (including pairs just above/below the 0.5
    threshold and size-filter edge cases)."""
    import ray.data as rd

    from crawling_infrastructure_ray.stages.dedup import (
        jaccard_exact_pairs_ds, ppjoin_pairs_ds)

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lam mu nu xi omic pi rho sigma tau upsilon")
    rows = [
        (base, "s0"),
        (base + " extra1", "s0"),                      # very high overlap
        (base.replace("alpha", "qq"), "s0"),           # high overlap
        ("alpha beta gamma " + "zz " * 30, "s0"),      # low overlap
        ("totally different words here only once each", "s0"),
        (base, "s0"),                                  # exact dup
    ]
    sf = _write_docs(tmp_path, rows)
    ds1 = rd.read_parquet(f"{sf}/documents.parquet",
                          columns=["doc_id", "text"])
    plain = jaccard_exact_pairs_ds(ds1, shingle_k=3, kind="token",
                                   threshold_e6=500_000)
    if hasattr(plain, "to_pandas"):
        plain = plain.to_pandas()
    ds2 = rd.read_parquet(f"{sf}/documents.parquet",
                          columns=["doc_id", "text"])
    pp = ppjoin_pairs_ds(ds2, shingle_k=3, kind="token",
                         threshold_e6=500_000)

    key = ["a", "b", "inter", "jaccard_e6"]
    p1 = set(map(tuple, plain[key].astype("int64").values.tolist()))
    p2 = set(map(tuple, pp[key].astype("int64").values.tolist()))
    assert p1 == p2 and len(p2) >= 2
    assert (0, 5) in {(a, b) for a, b, _, _ in p2}  # the exact dup


def test_scd2_and_normalize_crafted(ray_session, tmp_path):
    """SCD2: per-user LEAD chain with −1 open tail, version ordinals,
    cross-user isolation. Normalize: constant-value user pins to 0,
    range endpoints map to 0 / 1e6, interior uses floor division."""
    import datetime as dt

    from crawling_infrastructure_ray.pipelines.analytics import (
        q_normalize_value_per_user, q_scd2_intervals)

    t0 = dt.datetime(2024, 1, 1)
    rows = [
        (t0, 1, 10.0), (t0 + dt.timedelta(hours=1), 1, 20.0),
        (t0 + dt.timedelta(hours=3), 1, 15.0),
        (t0, 2, 7.0), (t0 + dt.timedelta(minutes=5), 2, 7.0),
    ]
    sf = _write_events(tmp_path, rows)

    scd = q_scd2_intervals(sf)
    if hasattr(scd, "to_pandas"):
        scd = scd.to_pandas()
    scd = scd.sort_values(["user_id", "event_id"]).reset_index(drop=True)
    u1 = scd[scd["user_id"] == 1]
    assert u1["version"].tolist() == [1, 2, 3]
    assert u1["valid_to_us"].tolist()[:2] == \
        u1["valid_from_us"].tolist()[1:]
    assert u1["valid_to_us"].iloc[-1] == -1
    assert scd[scd["user_id"] == 2]["valid_to_us"].iloc[-1] == -1

    nrm = q_normalize_value_per_user(sf)
    if hasattr(nrm, "to_pandas"):
        nrm = nrm.to_pandas()
    nrm = nrm.sort_values(["user_id", "event_id"]).reset_index(drop=True)
    assert nrm[nrm["user_id"] == 1]["norm_e6"].tolist() == [
        0, 1_000_000, 500_000]
    assert nrm[nrm["user_id"] == 2]["norm_e6"].tolist() == [0, 0]


def test_positional_index_brute(ray_session, tmp_path):
    """Brute-force posting summary on a crafted corpus: repeated
    tokens within a doc (cf > df), multi-doc tokens, and exact
    positional fold doc_id*1e5 + 1-based position."""
    from crawling_infrastructure_ray.pipelines.training import (
        PIDX_DOC_MULT, q_positional_index)

    rows = [("x y x", "s0"), ("y z", "s0"), ("x", "s0")]
    sf = _write_docs(tmp_path, rows)
    out = q_positional_index(sf)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    got = {r.token: (r.df, r.cf, r.poshash)
           for r in out.itertuples()}
    M = PIDX_DOC_MULT
    assert got["x"] == (2, 3, (0 * M + 1) + (0 * M + 3) + (2 * M + 1))
    assert got["y"] == (2, 2, (0 * M + 2) + (1 * M + 1))
    assert got["z"] == (1, 1, 1 * M + 2)
    # ranking: cf desc, token asc
    assert out["token"].tolist() == ["x", "y", "z"]


def test_greedy_vocab_cover_brute(ray_session, tmp_path):
    """Brute-force greedy max-coverage on a crafted corpus where the
    greedy choice differs from the by-size order (the classic
    submodularity trap): doc0 is biggest but docs 1+2 together cover
    more; ties broken by doc_id; gains hit zero before K is
    exhausted."""
    from crawling_infrastructure_ray.pipelines.training import (
        GVC_K, q_greedy_vocab_cover)

    rows = [
        ("a b c d e", "s0"),
        ("a b c f", "s0"),
        ("d e g h", "s0"),
        ("a b", "s0"),
        ("z", "s0"),
    ]
    sf = _write_docs(tmp_path, rows)
    out = q_greedy_vocab_cover(sf)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()

    # brute-force greedy
    sets = {i: set(t.split()) for i, (t, _) in enumerate(rows)}
    covered, chosen, want = set(), set(), []
    for step in range(1, GVC_K + 1):
        best = max((len(sets[d] - covered), -d) for d in sets
                   if d not in chosen)
        gain, d = best[0], -best[1]
        covered |= sets[d]
        chosen.add(d)
        want.append((step, d, gain, len(covered)))
    got = list(map(tuple, out[["step", "doc_id", "gain",
                               "covered_total"]].values.tolist()))
    assert got == want
    assert want[0][1] == 0 and want[-1][2] == 0  # trap + zero tail


def test_rank_gaps_vs_dense(ray_session):
    """RANK must skip after ties while DENSE_RANK does not — compare
    both on the driver corpus and assert the defining relationship:
    rank_gaps >= rank_dense everywhere, equality iff no earlier tie
    in the partition, and both start at 1 per brand."""
    from crawling_infrastructure_ray.pipelines.analytics import (
        q_part_price_rank, q_part_price_rank_dense)

    SF = "/root/testdata/sf0.001"
    g = q_part_price_rank(SF)
    d = q_part_price_rank_dense(SF)
    m = g.merge(d, on=["p_partkey", "p_brand", "price_c"])
    assert (m["rank_gaps"] >= m["rank_dense"]).all()
    assert (m.groupby("p_brand")["rank_gaps"].min() == 1).all()
    assert (m.groupby("p_brand")["rank_dense"].min() == 1).all()
    # with-gaps property: max rank == partition size
    sz = m.groupby("p_brand").size()
    mx = m.groupby("p_brand")["rank_gaps"].max()
    ties_last = (m.sort_values(["p_brand", "price_c"])
                 .groupby("p_brand")["price_c"]
                 .agg(lambda s: (s == s.min()).sum()))
    assert ((mx + ties_last - 1) == sz).all()


def test_cms_brute(ray_session, tmp_path):
    """Sequential-Python CMS on a crafted corpus (heavy skew so the
    top-k ordering and the min-over-rows estimate are exercised):
    registers recomputed per token occurrence one at a time; the
    engine's batched np.add.at build must agree exactly, and the
    estimate invariant est >= true must hold."""
    import numpy as np

    from crawling_infrastructure_ray.functions.hashing import (
        splitmix64_np, stable_hash64)
    from crawling_infrastructure_ray.pipelines.training import (
        CMS_D, CMS_SEEDS, CMS_W, q_cms_token_counts)

    docs = [("aa " * 50 + "bb " * 20 + "cc " * 5 + "dd", "s0"),
            ("bb " * 30 + "ee ff gg hh ii jj", "s0")]
    sf = _write_docs(tmp_path, docs)
    out = q_cms_token_counts(sf)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()

    # brute: one register update per occurrence
    table = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    from collections import Counter
    counts = Counter(t for d, _ in docs for t in d.split())
    for tok, n in counts.items():
        h = np.uint64(stable_hash64(tok))
        for r, s in enumerate(CMS_SEEDS):
            # NB: np.uint64 scalar % python int promotes to float64
            # (always 0 for 2^63-scale values) — keep it uint64
            reg = int(splitmix64_np(np.array([h ^ np.uint64(s)]))[0]
                      % np.uint64(CMS_W))
            table[r, reg] += n
    for row in out.itertuples():
        h = np.uint64(stable_hash64(row.token))
        est = min(int(table[r, int(splitmix64_np(
            np.array([h ^ np.uint64(s)]))[0] % np.uint64(CMS_W))])
            for r, s in enumerate(CMS_SEEDS))
        assert row.est_n == est
        assert row.true_n == counts[row.token]
        assert row.est_n >= row.true_n
    assert out["true_n"].iloc[0] == 50 and out["token"].iloc[0] == "aa"


def test_vocab_coverage_crafted(ray_session, tmp_path):
    """Coverage cuts on a skewed crafted corpus: k=1 covers the
    majority token exactly; cuts beyond the vocab clamp to full
    coverage; shares are exact floor-e6."""
    from crawling_infrastructure_ray.pipelines.training import \
        q_vocab_coverage_curve

    sf = _write_docs(tmp_path, [("a " * 70 + "b " * 20 + "c " * 10, "s0")])
    out = q_vocab_coverage_curve(sf)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    out = out.set_index("k")
    assert out.loc[1, "covered"] == 70 and out.loc[1, "total"] == 100
    assert out.loc[1, "share_e6"] == 700_000
    assert out.loc[5, "covered"] == 100  # whole 3-token vocab
    assert out.loc[1000, "share_e6"] == 1_000_000


def test_covisit_crafted(ray_session, tmp_path):
    """Co-visitation counting: same (day, type) context counted once
    per user pair regardless of per-day event multiplicity; pairs
    below the threshold are dropped."""
    import datetime as dt

    from crawling_infrastructure_ray.pipelines.analytics import (
        COVISIT_MIN_SHARED, q_covisit_user_pairs)

    t0 = dt.datetime(2024, 1, 1)
    rows = []
    # users 1+2 share 3 distinct days (threshold); user 3 shares 2
    for d in range(3):
        rows += [(t0 + dt.timedelta(days=d), 1, 1.0),
                 (t0 + dt.timedelta(days=d), 1, 2.0),  # dup same day
                 (t0 + dt.timedelta(days=d), 2, 1.0)]
    for d in range(2):
        rows += [(t0 + dt.timedelta(days=d), 3, 1.0)]
    sf = _write_events(tmp_path, rows)
    out = q_covisit_user_pairs(sf)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    got = {(r.user_a, r.user_b): r.n_shared for r in out.itertuples()}
    assert got == {(1, 2): 3}
    assert COVISIT_MIN_SHARED == 3


def test_entity_resolution_crafted(ray_session, tmp_path):
    """End-to-end: same-length near-dups cluster transitively (A~B,
    B~C => one cluster with canon = min doc_id) across a forced block
    boundary (block=4); an unrelated same-length doc stays out."""
    from crawling_infrastructure_ray.pipelines.training import \
        q_entity_resolution

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    rows = [
        (base, "s0"),                           # 0
        (base, "s0"),                           # 1 exact dup of 0
        (base.replace("kappa", "kappb"), "s0"),  # 2 one-token swap
        ("zz yy xx ww vv uu tt ss rr qq".ljust(len(base)), "s0"),  # 3
        ("m " * (len(base) // 2), "s0"),         # 4 different length
    ]
    sf = _write_docs(tmp_path, rows)
    out = q_entity_resolution(sf, block=4)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    got = {r.doc_id: (r.canon_id, r.cluster_size)
           for r in out.itertuples()}
    assert got[0] == (0, 3) and got[1] == (0, 3) and got[2] == (0, 3)
    assert 3 not in got and 4 not in got


def test_weekly_growth_and_benford_crafted(ray_session, tmp_path):
    """Growth: signed truncating division (SQL semantics) and -1/0
    first-week sentinel; Benford: exact leading-digit histogram with
    zero-count digits present."""
    import datetime as dt

    from crawling_infrastructure_ray.pipelines.analytics import (
        q_benford_digits, q_weekly_growth)

    t0 = dt.datetime(2024, 1, 1)
    rows = []
    # week A: 3 events; week B: 2 events (growth = -1/3 truncated)
    for i in range(3):
        rows.append((t0 + dt.timedelta(hours=i), 1, 1.23))
    for i in range(2):
        rows.append((t0 + dt.timedelta(days=7, hours=i), 1, 95.00))
    sf = _write_events(tmp_path, rows)

    g = q_weekly_growth(sf)
    if hasattr(g, "to_pandas"):
        g = g.to_pandas()
    g = g.sort_values("wk").reset_index(drop=True)
    assert g["prev_n"].tolist() == [-1, 3]
    assert g["growth_e6"].tolist() == [0, -333333]  # trunc, not floor

    b = q_benford_digits(sf)
    if hasattr(b, "to_pandas"):
        b = b.to_pandas()
    by = b.set_index("digit")
    assert by.loc[1, "n"] == 3      # 123 cents -> digit 1
    assert by.loc[9, "n"] == 2      # 9500 cents -> digit 9
    assert by.loc[2, "n"] == 0
    assert by.loc[1, "share_e6"] == 600_000


def test_f2_selfjoin_crafted(ray_session, tmp_path):
    """Exact F2 on a crafted key multiset (3,2,1 -> 14) plus the CMS
    estimate recomputed sequentially from first principles."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawling_infrastructure_ray.functions.hashing import \
        splitmix64_np
    from crawling_infrastructure_ray.pipelines.analytics import (
        F2_SEEDS, F2_W, q_f2_selfjoin_estimate)

    keys = [1, 1, 1, 2, 2, 3]
    pq.write_table(pa.table({"l_partkey": pa.array(keys, pa.int64())}),
                   str(tmp_path / "lineitem.parquet"))
    out = q_f2_selfjoin_estimate(str(tmp_path))
    row = out.iloc[0]
    assert row["n_rows"] == 6 and row["n_keys"] == 3
    assert row["exact_f2"] == 14

    table = np.zeros((len(F2_SEEDS), F2_W), dtype=np.int64)
    for k in keys:
        h0 = splitmix64_np(np.array([k], dtype=np.uint64))[0]
        for r, s in enumerate(F2_SEEDS):
            reg = int(splitmix64_np(np.array([h0 ^ np.uint64(s)]))[0]
                      % np.uint64(F2_W))
            table[r, reg] += 1
    want_est = min(int((row_ ** 2).sum()) for row_ in table)
    assert row["est_f2"] == want_est >= 14


def test_event_trigrams_crafted(ray_session, tmp_path):
    """Trigram windows never cross users; counts are per-occurrence
    (overlapping windows count separately)."""
    import datetime as dt

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawling_infrastructure_ray.pipelines.analytics import \
        q_event_trigrams

    t0 = dt.datetime(2024, 1, 1)
    rows = [
        # user 1: a b a b -> (a,b,a), (b,a,b)
        (t0, 1, "a"), (t0 + dt.timedelta(minutes=1), 1, "b"),
        (t0 + dt.timedelta(minutes=2), 1, "a"),
        (t0 + dt.timedelta(minutes=3), 1, "b"),
        # user 2: only 2 events -> no trigram
        (t0, 2, "a"), (t0 + dt.timedelta(minutes=1), 2, "b"),
    ]
    t = pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array([r[0] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
        "value": pa.array([1.0] * len(rows), pa.float64()),
        "props": pa.array([""] * len(rows), pa.string()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = q_event_trigrams(str(tmp_path))
    if hasattr(out, "to_pandas"):
        out = pd.DataFrame(out)
    got = {(r.t1, r.t2, r.t3): r.n for r in out.itertuples()}
    assert got == {("a", "b", "a"): 1, ("b", "a", "b"): 1}


def test_trending_and_bootstrap_crafted(ray_session, tmp_path):
    """Trending: power-of-two decay weights over the last 8 weeks,
    older weeks excluded. Bootstrap: multiplicities recomputed
    sequentially from the threshold table; n_effective ~ n and the
    replicate totals differ (real resampling spread)."""
    import datetime as dt

    import numpy as np

    from crawling_infrastructure_ray.functions.hashing import \
        splitmix64_np
    from crawling_infrastructure_ray.pipelines.analytics import (
        BOOT_SALTS, BOOT_T_E9, TREND_WEEKS, q_bootstrap_sums,
        q_trending_types)

    t0 = dt.datetime(2024, 6, 1)
    rows = []
    # 2 events in the max week, 1 event one week earlier, and one
    # event far outside the horizon
    rows += [(t0, 1, 2.00), (t0 + dt.timedelta(hours=1), 1, 3.00)]
    rows += [(t0 - dt.timedelta(days=7), 2, 5.00)]
    rows += [(t0 - dt.timedelta(days=7 * 20), 3, 7.00)]
    sf = _write_events(tmp_path, rows)

    tr = q_trending_types(sf)
    if hasattr(tr, "to_pandas"):
        tr = tr.to_pandas()
    # single event_type 'view': score = 2*2^7 + 1*2^6; old week ignored
    assert tr["score"].tolist() == [2 * 128 + 64]
    assert tr["n_last"].tolist() == [2]
    assert TREND_WEEKS == 8

    bs = q_bootstrap_sums(sf)
    if hasattr(bs, "to_pandas"):
        bs = bs.to_pandas()
    vals = [200, 300, 500, 700]
    for r, s in enumerate(BOOT_SALTS):
        n_eff, sv = 0, 0
        for eid, vc in enumerate(vals):
            u = int(splitmix64_np(np.array([np.uint64(eid) ^
                                            np.uint64(s)]))[0]
                    % np.uint64(1_000_000_000))
            m = sum(1 for t in BOOT_T_E9 if u < t)
            n_eff += m
            sv += m * vc
        row = bs[bs["replicate"] == r].iloc[0]
        assert row["n_effective"] == n_eff
        assert row["sum_value_c"] == sv


def test_hourofday_profile_crafted(ray_session, tmp_path):
    """Hour-of-day buckets are UTC-hour mod 24; shares are exact
    floor-e6 within the type."""
    import datetime as dt

    from crawling_infrastructure_ray.pipelines.analytics import \
        q_hourofday_profile

    t0 = dt.datetime(2024, 1, 1)  # midnight UTC
    rows = [(t0, 1, 1.00), (t0 + dt.timedelta(hours=5), 1, 2.00),
            (t0 + dt.timedelta(days=3, hours=5), 2, 4.00)]
    sf = _write_events(tmp_path, rows)
    out = q_hourofday_profile(sf)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    by = {(r.event_type, r.hod): (r.n, r.sum_value_c, r.share_e6)
          for r in out.itertuples()}
    assert by[("view", 0)] == (1, 100, 333333)
    assert by[("view", 5)] == (2, 600, 666666)
    assert len(by) == 2
