import logging

import numpy as np
import pytest

from efp import metrics
from efp.errors import DataError, UnscorableQuery
from efp.index import knn_all, query
from efp.metrics import (
    EvalReport,
    RelevanceList,
    average_precision,
    evaluate_all,
    precision_at_first_hit,
    precision_at_k,
    relevance_for_query,
    save_per_class_csv,
    save_scalars_csv,
    save_sweep_csv,
)

from oracles import (
    ap_oracle,
    evaluate_oracle,
    first_hit_oracle,
    p_at_k_oracle,
    ranking_oracle,
    sorted_candidates_oracle,
)
from test_index import make_index


def rl(bits, m_j=None):
    bits = tuple(bits)
    return RelevanceList(bits=bits, m_j=sum(bits) if m_j is None else m_j)


def test_average_precision_hand_cases():
    assert average_precision(rl([1, 1, 1])) == 1.0
    assert average_precision(rl([0, 1, 0, 1])) == 0.5
    assert average_precision(rl([1, 0, 1])) == pytest.approx(5 / 6, abs=1e-15)
    assert average_precision(rl([0, 0, 1])) == pytest.approx(1 / 3, abs=1e-15)
    with pytest.raises(UnscorableQuery):
        average_precision(rl([0, 0, 0]))


def test_average_precision_matches_oracle_on_random_lists():
    rng = np.random.default_rng(50)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        bits = [int(b) for b in rng.integers(0, 2, size=n)]
        if sum(bits) == 0:
            with pytest.raises(UnscorableQuery):
                average_precision(rl(bits))
            continue
        got = average_precision(rl(bits))
        assert got == ap_oracle(bits, sum(bits))
        checked += 1
    assert checked > 150


def test_first_hit_precision():
    assert precision_at_first_hit(rl([1, 0, 0])) == 1.0
    assert precision_at_first_hit(rl([0, 0, 1])) == pytest.approx(1 / 3)
    assert precision_at_first_hit(rl([0, 0, 0, 1])) == 0.25
    with pytest.raises(UnscorableQuery):
        precision_at_first_hit(rl([0, 0]))
    rng = np.random.default_rng(51)
    for _ in range(100):
        bits = [int(b) for b in rng.integers(0, 2, size=int(rng.integers(1, 30)))]
        if sum(bits) == 0:
            continue
        assert precision_at_first_hit(rl(bits)) == first_hit_oracle(bits)


def test_precision_at_k():
    assert precision_at_k(rl([1, 1, 0, 0]), 2) == 1.0
    assert precision_at_k(rl([1, 1, 0, 0]), 4) == 0.5
    assert precision_at_k(rl([0, 1]), 1) == 0.0
    rng = np.random.default_rng(52)
    for _ in range(100):
        bits = [int(b) for b in rng.integers(0, 2, size=int(rng.integers(1, 30)))]
        k = int(rng.integers(1, 35))
        assert precision_at_k(rl(bits), k) == p_at_k_oracle(bits, k)
    with pytest.raises(ValueError):
        precision_at_k(rl([1]), 0)
    with pytest.raises(UnscorableQuery):
        precision_at_k(rl([]), 1)


def test_precision_at_k_clamps_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        got = precision_at_k(rl([1, 0]), 10)
    assert got == 0.5
    assert any("clamp" in rec.message for rec in caplog.records)


def test_relevance_list_validation():
    with pytest.raises(ValueError):
        RelevanceList(bits=(0, 2), m_j=2)
    with pytest.raises(ValueError):
        RelevanceList(bits=(1, 1), m_j=1)
    with pytest.raises(ValueError):
        RelevanceList(bits=(), m_j=-1)
    # truncated ranking: fewer hits visible than exist
    truncated = RelevanceList(bits=(1, 0), m_j=5)
    assert average_precision(truncated) == pytest.approx(0.2)


def test_relevance_list_is_read_only_and_curve_matches_oracle():
    rng = np.random.default_rng(54)
    for _ in range(50):
        bits = [int(b) for b in rng.integers(0, 2, size=int(rng.integers(1, 40)))]
        rel = rl(bits)
        assert rel.bits.dtype == bool
        for arr in (rel.bits, rel.precision):
            with pytest.raises(ValueError):
                arr[0] = 1
        for k in range(1, len(bits) + 1):
            assert precision_at_k(rel, k) == p_at_k_oracle(bits, k)


def test_metric_bounds_and_perfect_prefix():
    rng = np.random.default_rng(53)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        bits = [int(b) for b in rng.integers(0, 2, size=n)]
        if sum(bits) == 0:
            continue
        r = rl(bits)
        assert 0.0 <= average_precision(r) <= 1.0
        assert 0.0 < precision_at_first_hit(r) <= 1.0
        m = sum(bits)
        perfect = all(bits[:m])
        assert (average_precision(r) == 1.0) == perfect
        assert (precision_at_first_hit(r) == 1.0) == (precision_at_k(r, 1) == 1.0)


def test_average_precision_ignores_order_past_last_hit():
    base = [1, 0, 1, 0, 0, 0]
    ap = average_precision(rl(base))
    assert ap == average_precision(rl([1, 0, 1] + [0, 0, 0]))
    # moving a zero around after the final hit cannot change AP
    assert average_precision(rl([1, 0, 1, 0])) == ap


def separable_index():
    e = np.array(
        [
            [0.0, 0.1],
            [0.0, 0.2],
            [0.0, 0.3],
            [5.0, 0.1],
            [5.0, 0.2],
            [5.0, 0.3],
        ],
        dtype=np.float32,
    )
    labels = ["a", "a", "a", "b", "b", "b"]
    ids = [f"{lbl}/{i}#0" for i, lbl in enumerate(labels)]
    return make_index(e, labels=labels, ids=ids)


def test_evaluate_all_perfect_separation():
    index = separable_index()
    report = evaluate_all(index, measure="euclidean", k_values=(1, 2), headline_k=2)
    assert report.map == 1.0
    assert report.mp1 == 1.0
    assert report.mpk[1] == 1.0
    assert report.mpk[2] == 1.0
    assert report.per_class_mpk == {"a": 1.0, "b": 1.0}
    assert report.n_queries == 6
    assert report.n_unscorable == 0
    assert report.headline_mpk == 1.0


def test_evaluate_all_random_two_class_map_near_half():
    rng = np.random.default_rng(54)
    n = 200
    labels = ["x"] * (n // 2) + ["y"] * (n // 2)
    index = make_index(
        rng.standard_normal((n, 8)),
        labels=labels,
        ids=[f"{lbl}/{i:03d}#0" for i, lbl in enumerate(labels)],
    )
    report = evaluate_all(index, measure="euclidean", k_values=(1, 5), headline_k=5)
    assert abs(report.map - 0.5) < 0.05
    assert report.n_queries == n


def test_evaluate_all_counts_unscorable_queries(caplog):
    e = np.array([[0.0, 0.1], [0.0, 0.2], [9.0, 0.1]], dtype=np.float32)
    index = make_index(e, labels=["a", "a", "lone"], ids=["a/0#0", "a/1#0", "lone/0#0"])
    with caplog.at_level(logging.WARNING):
        report = evaluate_all(index, measure="euclidean", k_values=(1,), headline_k=1)
    assert report.n_queries == 2
    assert report.n_unscorable == 1
    assert "lone" not in report.per_class_mpk
    assert any("no same-class clip" in rec.message for rec in caplog.records)


def test_evaluate_all_rejects_all_singletons():
    e = np.eye(3, dtype=np.float32)
    index = make_index(e, labels=["p", "q", "r"], ids=["p/0#0", "q/0#0", "r/0#0"])
    with pytest.raises(DataError):
        evaluate_all(index, measure="euclidean")
    with pytest.raises(DataError, match="not in index"):
        evaluate_all(separable_index(), ["nope"], measure="euclidean")


def test_evaluate_all_warns_when_the_index_has_collapsed(caplog):
    labels = ["a", "a", "b", "b"]
    ids = [f"{lbl}/{i}#0" for i, lbl in enumerate(labels)]
    collapsed = make_index(np.ones((4, 3)), labels=labels, ids=ids)
    with caplog.at_level(logging.WARNING, logger="efp.metrics"):
        evaluate_all(collapsed, measure="euclidean", k_values=(1,), headline_k=1)
    assert [rec.message for rec in caplog.records if "collapsed" in rec.message] == [
        "index has collapsed: 1 distinct embeddings for 2 classes"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="efp.metrics"):
        evaluate_all(separable_index(), measure="euclidean", k_values=(1,), headline_k=1)
    assert not [rec for rec in caplog.records if "collapsed" in rec.message]


def test_evaluate_all_calls_relevance_for_query_once_per_query(monkeypatch):
    """evaluate_all looks relevance_for_query up as a module attribute and
    calls it once per query id: a profiler that wraps it divides the time of
    evaluate_all by its call count."""
    calls = []
    original = metrics.relevance_for_query

    def counting(index, clip_id, measure):
        calls.append(clip_id)
        return original(index, clip_id, measure)

    monkeypatch.setattr(metrics, "relevance_for_query", counting)
    index = separable_index()
    query_ids = index.clip_ids[::-1]
    evaluate_all(index, query_ids, measure="cosine", k_values=(1, 2), headline_k=2)
    assert calls == query_ids


def test_evaluate_all_oversized_k_single_warning(caplog):
    index = separable_index()
    with caplog.at_level(logging.WARNING):
        report = evaluate_all(index, measure="euclidean", k_values=(1, 25, 30), headline_k=25)
    clamp_warnings = [rec for rec in caplog.records if "clamped" in rec.message]
    assert len(clamp_warnings) == 1
    # K past the database size sees the whole database: 2 of 5 are same-class
    assert report.mpk[25] == pytest.approx(2 / 5)
    assert report.mpk[30] == pytest.approx(2 / 5)
    assert report.headline_mpk == report.mpk[25]


def test_evaluate_all_matches_recomputation_from_rankings():
    rng = np.random.default_rng(55)
    n = 24
    labels = [f"cls{i % 3}" for i in range(n)]
    index = make_index(
        rng.standard_normal((n, 6)),
        labels=labels,
        ids=[f"{lbl}/{i:03d}#0" for i, lbl in enumerate(labels)],
    )
    for measure in ("euclidean", "cosine"):
        report = evaluate_all(index, measure=measure, k_values=(1, 3, 7), headline_k=3)
        aps, fhs, p3s = [], [], []
        for cid, ranking in knn_all(index, measure, k=n - 1):
            bits = [
                1 if lbl == index.label_of(cid) else 0 for lbl in ranking.labels
            ]
            aps.append(ap_oracle(bits, sum(bits)))
            fhs.append(first_hit_oracle(bits))
            p3s.append(p_at_k_oracle(bits, 3))
        assert report.map == pytest.approx(np.mean(aps), abs=1e-15)
        assert report.mp1 == pytest.approx(np.mean(fhs), abs=1e-15)
        assert report.mpk[3] == pytest.approx(np.mean(p3s), abs=1e-15)


def test_relevance_for_query_excludes_self():
    index = separable_index()
    rel = relevance_for_query(index, "a/0#0", "euclidean")
    assert len(rel.bits) == 5
    assert rel.m_j == 2
    assert rel.bits[:2].tolist() == [True, True]


def test_csv_writers(tmp_path):
    index = separable_index()
    r_eu = evaluate_all(index, measure="euclidean", k_values=(1, 2), headline_k=2)
    r_co = evaluate_all(index, measure="cosine", k_values=(1, 2), headline_k=2)

    scalars = tmp_path / "scalars.csv"
    save_scalars_csv([r_eu, r_co], scalars)
    lines = scalars.read_text().splitlines()
    assert lines[0] == "metric,measure,value"
    assert "map,euclidean,1.0" in lines
    assert "mp2,cosine," + repr(r_co.headline_mpk) in lines
    assert "n_queries,euclidean,6" in lines
    assert len(lines) == 1 + 2 * 5

    sweep = tmp_path / "sweep.csv"
    save_sweep_csv(r_eu, sweep)
    lines = sweep.read_text().splitlines()
    assert lines == ["K,mpk", "1,1.0", "2,1.0"]

    per_class = tmp_path / "per_class.csv"
    save_per_class_csv(r_eu, per_class)
    lines = per_class.read_text().splitlines()
    assert lines == ["class,mpk", "a,1.0", "b,1.0"]


def labeled_index(rng, m, n_classes=4):
    """An index of rows m with random labels and shuffled, unsorted ids."""
    labels = [f"class{int(c)}" for c in rng.integers(0, n_classes, len(m))]
    ids = [f"{lbl}/{int(rng.integers(1000)):03d}-{i}#0" for i, lbl in enumerate(labels)]
    order = rng.permutation(len(m))
    return make_index(m, labels=labels, ids=[ids[i] for i in order])


def tie_index(seed, dim, n=40):
    """Rows whose scores tie: exact duplicates, a row one float32 ulp from
    another, permutations of one row (equal exact distances to, and dots
    with, the constant rows), scalar multiples (equal cosines) and zero rows;
    the rest random, all shuffled."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim)).astype(np.float32)
    m[0:4] = np.array([0.5, 1.0, -1.0, 2.0], dtype=np.float32)[:, None]
    m[4:10] = [rng.permutation(m[4]) for _ in range(6)]
    m[10:14] = m[[4, 30, 33, 36]]
    m[14] = np.nextafter(m[15], np.float32(np.inf))
    m[16], m[17] = 2 * m[18], m[18] / 2
    m[19:21] = 0.0
    return labeled_index(rng, m[rng.permutation(n)])


def mirror_index(seed, dim, centers=6, pairs=3):
    """Pairs of rows mirrored close around a center row. Their distances from
    the center are often exactly equal while the GEMM form rounds them apart,
    and there are no duplicate rows whose exact ties would rank every row on
    the direct formula anyway."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(centers):
        center = rng.standard_normal(dim).astype(np.float32)
        offsets = (1e-3 * rng.standard_normal((pairs, dim))).astype(np.float32)
        rows += [center[None, :], center + offsets, center - offsets]
    return labeled_index(rng, np.concatenate(rows))


def test_engine_matches_direct_formula_oracle_on_near_ties():
    """evaluate_all, knn_all and query equal the per-query direct-formula
    path exactly, rankings and scores, on indexes full of ties and near-ties;
    query also equals the scalar ranking oracle."""
    indexes = [
        build(seed, dim=(6, 24)[seed % 2])
        for seed in range(12)
        for build in (tie_index, mirror_index)
    ]
    for index in indexes:
        ids, labels, matrix = index.clip_ids, index.labels, index.matrix
        entries = [(cid, row.astype(np.float64).tolist()) for cid, row in zip(ids, matrix)]
        for measure in ("euclidean", "cosine"):
            report = evaluate_all(index, measure=measure, k_values=(1, 2, 5, 10), headline_k=5)
            want = evaluate_oracle(ids, labels, matrix, measure, (1, 2, 5, 10), 5)
            assert report == EvalReport(**want)
            for row, (cid, ranking) in enumerate(knn_all(index, measure, k=len(index) - 1)):
                want = sorted_candidates_oracle(ids, labels, matrix, matrix[row], measure, cid)
                assert list(ranking) == [(c, label, score) for score, c, label in want]
            for q in matrix[:12].astype(np.float64):
                got = query(index, q, measure, k=len(index))
                want = sorted_candidates_oracle(ids, labels, matrix, q, measure)
                assert list(got) == [(c, label, score) for score, c, label in want]
                if index.dim < 8:
                    # numpy adds fewer than 8 terms in order, as the scalar oracle
                    # does; longer rows it sums pairwise, which can round a near-tie
                    # the other way
                    oracle = ranking_oracle(entries, q.tolist(), measure, len(index))
                    assert got.ids == tuple(cid for cid, _ in oracle)
                    for gs, (_, ws) in zip(got.scores, oracle):
                        assert abs(gs - ws) <= 1e-12
