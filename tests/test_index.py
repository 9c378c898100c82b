import logging

import numpy as np
import pytest

from efp.errors import DataError
from efp.features import FeatureCache
from efp.index import EMBED_BLOCK_ROWS, EmbeddingIndex, build_index, knn_all, query
from efp.net import MlpParams, SiameseModel, init_params

from oracles import cosine_oracle, euclidean_oracle, ranking_oracle


def make_index(matrix, labels=None, ids=None):
    matrix = np.asarray(matrix, dtype=np.float32)
    n = len(matrix)
    ids = ids or [f"c/{i:03d}#0" for i in range(n)]
    labels = labels or ["c"] * n
    return EmbeddingIndex(
        clip_ids=ids, labels=labels, matrix=matrix, model_fingerprint=bytes(32)
    )


def small_model(dim=6, seed=0):
    return SiameseModel(
        params=init_params(seed, (dim, 5, 4)),
        margin=1.0,
        feature_means=np.zeros(dim),
        feature_stds=np.ones(dim),
    )


def small_cache(n=7, dim=6, seed=1):
    rng = np.random.default_rng(seed)
    ids = [f"x/{i:02d}#0" for i in range(n)]
    labels = [f"g{i % 2}" for i in range(n)]
    return FeatureCache(
        freq_bins=dim,
        time_bins=1,
        clip_ids=ids,
        labels=labels,
        matrix=rng.standard_normal((n, dim)).astype(np.float32),
    )


def test_build_index_covers_cache_in_order():
    cache = small_cache()
    model = small_model()
    index = build_index(model, cache)
    assert index.clip_ids == cache.clip_ids
    assert index.labels == cache.labels
    assert index.matrix.dtype == np.float32
    assert len(index) == 7
    want = model.embed(cache.matrix.astype(np.float64)).astype(np.float32)
    assert np.array_equal(index.matrix, want)
    assert index.model_fingerprint == model.fingerprint()


def test_build_index_subset_and_rebuild_identical(tmp_path):
    cache = small_cache()
    model = small_model()
    subset = cache.clip_ids[2:5]
    index = build_index(model, cache, subset)
    assert index.clip_ids == list(subset)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    build_index(model, cache, subset).save(p1)
    build_index(model, cache, subset).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    with pytest.raises(DataError):
        build_index(model, cache, [])


@pytest.mark.parametrize("tail", [3, 1])
def test_blocked_build_equals_one_embed_call(tail):
    """Two full blocks and a short one (a lone last row joins the block
    before it) give the rows one embed call over all of them gives."""
    n = 2 * EMBED_BLOCK_ROWS + tail
    cache = small_cache(n=n, dim=40, seed=4)
    model = SiameseModel(params=init_params(5, (40, 16, 8)), margin=1.0,
                         feature_means=np.full(40, 0.25), feature_stds=np.full(40, 1.5))
    ids = cache.clip_ids[::-1]
    index = build_index(model, cache, ids)
    want = model.embed(cache.rows(ids)).astype(np.float32)
    assert index.matrix.tobytes() == want.tobytes()


def test_build_index_holds_a_few_blocks_not_the_standardized_rows():
    import tracemalloc

    n, dim = 1000, 2000
    cache = small_cache(n=n, dim=dim, seed=6)
    model = SiameseModel(params=init_params(7, (dim, 64, 32)), margin=1.0,
                         feature_means=np.zeros(dim), feature_stds=np.ones(dim))
    tracemalloc.start()
    try:
        index = build_index(model, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(index) == n
    # one block is its float32 rows and their float64 standardized copy; the
    # rows of all n clips standardized at once were 16 MB
    block = EMBED_BLOCK_ROWS * dim * (4 + 8)
    assert peak < 3 * block < n * dim * 8 / 2


def test_zero_weight_model_still_indexes():
    dim = 6
    model = SiameseModel(
        params=MlpParams(weights=[np.zeros((3, dim))], biases=[np.zeros(3)]),
        margin=1.0,
        feature_means=np.zeros(dim),
        feature_stds=np.ones(dim),
    )
    index = build_index(model, small_cache(dim=dim))
    assert np.array_equal(index.matrix, np.zeros((7, 3), dtype=np.float32))
    r = query(index, np.zeros(3), "cosine", k=3)
    assert r.scores == (0.0, 0.0, 0.0)


def test_self_query_ranks_itself_first_with_score_zero():
    rng = np.random.default_rng(3)
    index = make_index(rng.standard_normal((10, 4)))
    q = index.vector("c/004#0").astype(np.float64)
    r = query(index, q, "euclidean", k=3)
    assert r.ids[0] == "c/004#0"
    assert r.scores[0] == 0.0


def test_cosine_is_scale_invariant():
    rng = np.random.default_rng(4)
    index = make_index(rng.standard_normal((12, 5)))
    q = rng.standard_normal(5)
    base = query(index, q, "cosine", k=12)
    exact = query(index, 4.0 * q, "cosine", k=12)
    assert exact.ids == base.ids
    assert np.allclose(exact.scores, base.scores, rtol=0, atol=1e-15)
    odd = query(index, 3.7 * q, "cosine", k=12)
    assert odd.ids == base.ids


def test_hand_built_distances():
    e = np.zeros((3, 128), dtype=np.float32)
    e[0, 0] = 1.0
    e[1, 1] = 1.0
    e[2, 0] = 0.9
    e[2, 1] = 0.1
    index = make_index(e, ids=["a", "b", "c"])
    r = query(index, e[0].astype(np.float64), "euclidean", k=3)
    assert r.ids == ("a", "c", "b")
    assert r.scores[0] == 0.0
    assert abs(r.scores[1] - np.hypot(0.1, 0.1)) < 1e-7
    assert abs(r.scores[2] - np.sqrt(2.0)) < 1e-7


def test_ties_break_on_ascending_clip_id():
    e = np.array([[1, 0], [0, 1], [0, 1], [0, 1]], dtype=np.float32)
    index = make_index(e, ids=["d", "c", "b", "a"])
    r = query(index, np.array([1.0, 0.0]), "euclidean", k=4)
    assert r.ids == ("d", "a", "b", "c")
    r = query(index, np.array([0.0, 1.0]), "cosine", k=4)
    assert r.ids == ("a", "b", "c", "d")


def test_excluded_clip_never_returned():
    rng = np.random.default_rng(5)
    index = make_index(rng.standard_normal((8, 3)))
    q = index.vector("c/002#0").astype(np.float64)
    r = query(index, q, "euclidean", k=8, exclude="c/002#0")
    assert "c/002#0" not in r.ids
    assert len(r) == 7
    only = make_index(rng.standard_normal((1, 3)))
    with pytest.raises(DataError):
        query(only, q[:3], "euclidean", k=1, exclude=only.clip_ids[0])


def test_top_k_is_prefix_of_full_ranking():
    rng = np.random.default_rng(6)
    index = make_index(rng.standard_normal((15, 4)))
    q = rng.standard_normal(4)
    for measure in ("euclidean", "cosine"):
        full = query(index, q, measure, k=15)
        top = query(index, q, measure, k=4)
        assert top.ids == full.ids[:4]
        assert top.scores == full.scores[:4]


def test_oversized_k_clamps_with_warning(caplog):
    rng = np.random.default_rng(7)
    index = make_index(rng.standard_normal((5, 3)))
    with caplog.at_level(logging.WARNING):
        r = query(index, rng.standard_normal(3), "euclidean", k=50)
    assert len(r) == 5
    assert any("clamp" in rec.message for rec in caplog.records)
    with pytest.raises(ValueError):
        query(index, np.zeros(3), "euclidean", k=0)
    with pytest.raises(ValueError):
        query(index, np.zeros(4), "euclidean", k=1)
    with pytest.raises(ValueError):
        query(index, np.zeros(3), "manhattan", k=1)


def test_knn_all_excludes_self_and_is_idempotent():
    rng = np.random.default_rng(8)
    index = make_index(rng.standard_normal((6, 4)))
    results = knn_all(index, "euclidean", k=5)
    assert [cid for cid, _ in results] == index.clip_ids
    for cid, ranking in results:
        assert cid not in ranking.ids
        assert len(ranking) == 5
    again = knn_all(index, "euclidean", k=5)
    assert [(cid, r.ids, r.scores) for cid, r in results] == [
        (cid, r.ids, r.scores) for cid, r in again
    ]
    pair = make_index(rng.standard_normal((2, 4)))
    two = knn_all(pair, "cosine", k=1)
    assert two[0][1].ids == (pair.clip_ids[1],)
    assert two[1][1].ids == (pair.clip_ids[0],)
    with pytest.raises(DataError):
        knn_all(make_index(rng.standard_normal((1, 4))), "euclidean", k=1)


def test_random_indexes_match_brute_force_oracle():
    rng = np.random.default_rng(9)
    for trial in range(50):
        n, dim = 20, int(rng.integers(2, 8))
        matrix = rng.standard_normal((n, dim)).astype(np.float32)
        if trial % 5 == 0:
            matrix[int(rng.integers(n))] = 0.0  # exercise the zero-vector rule
        index = make_index(matrix)
        q = rng.standard_normal(dim)
        if trial % 7 == 0:
            q = np.zeros(dim)
        entries = [
            (cid, index.matrix[i].astype(np.float64).tolist())
            for i, cid in enumerate(index.clip_ids)
        ]
        for measure in ("euclidean", "cosine"):
            got = query(index, q, measure, k=n)
            want = ranking_oracle(entries, q.tolist(), measure, n)
            assert got.ids == tuple(cid for cid, _ in want)
            for gs, (_, ws) in zip(got.scores, want):
                assert abs(gs - ws) <= 1e-12


def test_unit_normalized_rankings_agree_across_measures():
    rng = np.random.default_rng(10)
    matrix = rng.uniform(0.1, 1.0, size=(25, 6))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    index = make_index(matrix.astype(np.float32))
    for _ in range(100):
        q = rng.uniform(0.05, 1.0, size=6)
        q /= np.linalg.norm(q)
        assert (
            query(index, q, "euclidean", k=25).ids
            == query(index, q, "cosine", k=25).ids
        )


def test_scores_match_scalar_oracles():
    rng = np.random.default_rng(11)
    index = make_index(rng.standard_normal((10, 5)))
    q = rng.standard_normal(5)
    eu = query(index, q, "euclidean", k=10)
    co = query(index, q, "cosine", k=10)
    for cid, _, score in eu:
        want = euclidean_oracle(q.tolist(), index.vector(cid).astype(np.float64).tolist())
        assert abs(score - want) <= 1e-12
    for cid, _, score in co:
        want = cosine_oracle(q.tolist(), index.vector(cid).astype(np.float64).tolist())
        assert abs(score - want) <= 1e-12


def test_index_round_trip_and_corruption(tmp_path):
    rng = np.random.default_rng(12)
    index = make_index(
        rng.standard_normal((6, 4)),
        labels=[f"lbl{i % 3}" for i in range(6)],
    )
    path = tmp_path / "index.bin"
    index.save(path)
    loaded = EmbeddingIndex.load(path)
    assert loaded.clip_ids == index.clip_ids
    assert loaded.labels == index.labels
    assert np.array_equal(loaded.matrix, index.matrix)
    assert loaded.model_fingerprint == index.model_fingerprint
    p2 = tmp_path / "again.bin"
    loaded.save(p2)
    assert p2.read_bytes() == path.read_bytes()

    (tmp_path / "bad.bin").write_bytes(b"WHAT" + path.read_bytes()[4:])
    with pytest.raises(DataError):
        EmbeddingIndex.load(tmp_path / "bad.bin")
    (tmp_path / "cut.bin").write_bytes(path.read_bytes()[:30])
    with pytest.raises(DataError):
        EmbeddingIndex.load(tmp_path / "cut.bin")
    # a u64 count @12 far beyond the rows in the file
    data = path.read_bytes()
    (tmp_path / "big.bin").write_bytes(data[:12] + (2**40).to_bytes(8, "little") + data[20:])
    with pytest.raises(DataError, match="header declares"):
        EmbeddingIndex.load(tmp_path / "big.bin")
    with pytest.raises(DataError):
        EmbeddingIndex.load(tmp_path / "absent.bin")


def test_index_validation():
    with pytest.raises(DataError):
        make_index(np.full((2, 3), np.nan))
    with pytest.raises(DataError):
        make_index(np.zeros((2, 3)), ids=["same", "same"])
    with pytest.raises(DataError):
        EmbeddingIndex(
            clip_ids=["a"],
            labels=["x"],
            matrix=np.zeros((1, 2), dtype=np.float32),
            model_fingerprint=b"short",
        )
    index = make_index(np.zeros((2, 3)))
    with pytest.raises(DataError):
        index.vector("ghost")
    with pytest.raises(DataError):
        index.label_of("ghost")
    with pytest.raises(DataError):
        query(make_index(np.zeros((0, 3))), np.zeros(3), "euclidean", k=1)
