"""End-to-end gate: one test per release criterion, each printing PASS/FAIL."""

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from efp import cli, corpus, metrics, pairs
from efp.features import FeatureCache, featurize_clip
from efp.index import EmbeddingIndex, build_index, knn_all, query
from efp.metrics import RelevanceList, average_precision, precision_at_first_hit, precision_at_k
from efp.net import (
    DEFAULT_LAYER_DIMS,
    LossConfig,
    SiameseModel,
    _feature_stats,
    forward_eval,
    init_params,
)
from efp.wav import PcmClip

from conftest import fd_checkable_pair
from oracles import (
    ap_oracle,
    contrastive_loss,
    first_hit_oracle,
    grad_check,
    p_at_k_oracle,
    pair_distance,
    ranking_oracle,
)

E2E_SEED = 0
E2E_EPOCHS = 12
E2E_BUDGET_SECONDS = 900.0


@contextlib.contextmanager
def criterion(name, capsys):
    """Print one terminal-visible PASS/FAIL line per release criterion."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[ACCEPTANCE] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] {name}: PASS")


@dataclass
class PipelineRun:
    root: object
    elapsed: float = 0.0
    error: str | None = None
    paths: dict = field(default_factory=dict)

    def require(self):
        assert self.error is None, f"pipeline failed: {self.error}"


def run_pipeline(root, seed, classes, per_class, epochs, scheme="unbalanced"):
    """Drive the CLI end to end; never raises, records any failure."""
    run = PipelineRun(root=root)
    p = run.paths
    p["corpus"] = root / "corpus"
    p["manifest"] = p["corpus"] / "manifest.csv"
    p["cache"] = root / "features.bin"
    p["split"] = root / "split.csv"
    p["model"] = root / "model.bin"
    p["history"] = root / "model_history.csv"
    p["index"] = root / "index.bin"
    p["reports"] = root / "reports"
    steps = [
        ["synth", "--classes", str(classes), "--per-class", str(per_class),
         "--seed", str(seed), "--out", str(p["corpus"])],
        ["featurize", "--manifest", str(p["manifest"]), "--out", str(p["cache"])],
        ["split", "--manifest", str(p["manifest"]), "--seed", str(seed),
         "--out", str(p["split"])],
        ["train", "--manifest", str(p["split"]), "--cache", str(p["cache"]),
         "--scheme", scheme, "--epochs", str(epochs), "--batch-size", "64",
         "--seed", str(seed), "--out", str(p["model"])],
        ["index", "--model", str(p["model"]), "--cache", str(p["cache"]),
         "--manifest", str(p["split"]), "--split", "test", "--out", str(p["index"])],
        ["evaluate", "--index", str(p["index"]), "--measure", "both",
         "--out-dir", str(p["reports"])],
    ]
    t0 = time.perf_counter()
    for argv in steps:
        rc = cli.main(argv)
        if rc != 0:
            run.error = f"{argv[0]} exited with {rc}"
            break
    run.elapsed = time.perf_counter() - t0
    return run


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_e2e")
    return run_pipeline(root, E2E_SEED, classes=5, per_class=40, epochs=E2E_EPOCHS)


@pytest.fixture(scope="module")
def balanced_run(e2e, tmp_path_factory):
    if e2e.error is not None:
        return PipelineRun(root=None, error=f"skipped after: {e2e.error}")
    root = tmp_path_factory.mktemp("acceptance_balanced")
    return run_pipeline(root, E2E_SEED, classes=5, per_class=40,
                        epochs=E2E_EPOCHS, scheme="balanced")


def random_init_model(run):
    """The untrained counterpart of the pipeline's model: same init, same stats."""
    split = corpus.Manifest.load(run.paths["split"])
    cache = FeatureCache.load(run.paths["cache"])
    train_pairs = pairs.make_pairs(
        split.subset("train"),
        pairs.PairingConfig(scheme="unbalanced", seed=E2E_SEED + 2),
    )
    X = np.asarray([cache.vector(cid) for cid in train_pairs.ids], dtype=np.float64)
    means, stds = _feature_stats(X)
    dims = (cache.dim,) + tuple(DEFAULT_LAYER_DIMS[1:])
    return SiameseModel(init_params(E2E_SEED + 3, dims), 1.0, means, stds), cache, split


def test_gradient_check_accuracy_and_budget(capsys):
    with criterion("gradient check vs finite differences", capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(17)
        worst = 0.0
        for trial in range(20):
            dims = (
                int(rng.integers(5, 11)),
                int(rng.integers(4, 9)),
                int(rng.integers(3, 7)),
                int(rng.integers(2, 5)),
            )
            params, x1, x2 = fd_checkable_pair(trial, dims, trial % 2)
            rel = grad_check(params, x1, x2, trial % 2, LossConfig(margin=1.0))
            worst = max(worst, rel)
        params, x1, x2 = fd_checkable_pair(99, DEFAULT_LAYER_DIMS, 1)
        rel = grad_check(params, x1, x2, 1, LossConfig(margin=1.0),
                         max_coords=250, seed=0)
        worst = max(worst, rel)
        elapsed = time.perf_counter() - t0
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_contrastive_loss_identities(capsys):
    with criterion("contrastive loss identities", capsys):
        m1 = LossConfig(margin=1.0)
        assert contrastive_loss(1, 0.0, m1) == 0.0
        assert contrastive_loss(0, 1.0, m1) == 0.0
        assert contrastive_loss(0, 2.5, m1) == 0.0
        assert abs(contrastive_loss(0, 0.5, m1) - 0.125) <= 1e-12
        assert abs(contrastive_loss(1, 2.0, m1) - 2.0) <= 1e-12
        rng = np.random.default_rng(3)
        params = init_params(3, (6, 5, 4, 3))
        for w in params.weights:
            w += rng.standard_normal(w.shape) * 0.4
        for trial in range(100):
            x1 = rng.standard_normal(6)
            x2 = rng.standard_normal(6)
            y = trial % 2
            e1, e2 = forward_eval(params, np.stack([x1, x2]))
            forwards = contrastive_loss(y, pair_distance(e1, e2), m1)
            e2r, e1r = forward_eval(params, np.stack([x2, x1]))
            backwards = contrastive_loss(y, pair_distance(e2r, e1r), m1)
            assert abs(forwards - backwards) <= 1e-12


def test_metric_oracle_equivalence(capsys):
    with criterion("retrieval metrics vs brute-force oracle", capsys):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            bits = [int(b) for b in rng.integers(0, 2, size=n)]
            if sum(bits) == 0:
                bits[int(rng.integers(0, n))] = 1
            rel = RelevanceList(bits=tuple(bits), m_j=sum(bits))
            assert average_precision(rel) == ap_oracle(bits, sum(bits))
            assert precision_at_first_hit(rel) == first_hit_oracle(bits)
            k = int(rng.integers(1, n + 1))
            assert precision_at_k(rel, k) == p_at_k_oracle(bits, k)


def test_ranking_matches_brute_force(capsys):
    with criterion("ranking vs exhaustive comparison oracle", capsys):
        rng = np.random.default_rng(29)
        for trial in range(50):
            rows = rng.standard_normal((20, 6))
            if trial % 4 == 0:
                rows[7] = rows[3]  # planted exact tie
            ids = [f"c{i:02d}/x#{trial}" for i in range(20)]
            labels = [f"g{i % 4}" for i in range(20)]
            index = EmbeddingIndex(
                clip_ids=ids, labels=labels,
                matrix=rows.astype(np.float32), model_fingerprint=bytes(32),
            )
            q = rng.standard_normal(6)
            for measure in ("euclidean", "cosine"):
                k = int(rng.integers(1, 21))
                got = query(index, q, measure, k=k)
                want = ranking_oracle(
                    list(zip(ids, index.matrix.astype(np.float64))), q, measure, k
                )
                assert list(got.ids) == [cid for cid, _ in want]
                for g, (_, s) in zip(got.scores, want):
                    assert abs(g - s) <= 1e-12


def test_unit_norm_euclidean_cosine_agreement(capsys):
    with criterion("euclidean and cosine agree on unit vectors", capsys):
        rng = np.random.default_rng(31)
        rows = rng.standard_normal((40, 8))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        index = EmbeddingIndex(
            clip_ids=[f"u{i:02d}/x#0" for i in range(40)],
            labels=["u"] * 40,
            matrix=rows.astype(np.float32),
            model_fingerprint=bytes(32),
        )
        for _ in range(100):
            q = rng.standard_normal(8)
            q /= np.linalg.norm(q)
            by_distance = query(index, q, "euclidean", k=40)
            by_angle = query(index, q, "cosine", k=40)
            assert list(by_distance.ids) == list(by_angle.ids)


def test_feature_vector_contract(capsys):
    with criterion("feature vector shape, finiteness, silence floor", capsys):
        rng = np.random.default_rng(37)
        n = 2 * 16000
        t = np.arange(n) / 16000
        clips = [np.zeros(n) + 1e-3 * rng.standard_normal(n)]
        clips.append(0.5 * np.sin(2 * np.pi * 440 * t))
        clips.append(np.clip(rng.standard_normal(n) * 0.2, -1, 1))
        for _ in range(7):
            freq = rng.uniform(30, 7900)
            mix = rng.uniform(0, 0.5) * np.sin(2 * np.pi * freq * t)
            mix = mix + rng.uniform(0, 0.2) * rng.standard_normal(n)
            quantized = np.round(np.clip(mix, -1, 1) * 32767) / 32767
            clips.append(quantized)
        for i, samples in enumerate(clips):
            clip = PcmClip(samples=samples, sample_rate_hz=16000, clip_id=f"a/c#{i}")
            values = featurize_clip(clip).values
            assert values.shape == (13509,)
            assert np.all(np.isfinite(values))
        silent = PcmClip(samples=np.zeros(n), sample_rate_hz=16000, clip_id="a/s#0")
        values = featurize_clip(silent).values
        assert np.all(values == np.log(np.float64(1e-6)))


def test_end_to_end_synthetic_retrieval(e2e, capsys):
    with criterion("end-to-end retrieval quality and budget", capsys):
        e2e.require()
        index = EmbeddingIndex.load(e2e.paths["index"])
        trained = metrics.evaluate_all(index, measure="euclidean")
        model, cache, split = random_init_model(e2e)
        test_ids = [r.clip_id for r in split.subset("test")]
        untrained_index = build_index(model, cache, test_ids)
        untrained = metrics.evaluate_all(untrained_index, measure="euclidean")
        with capsys.disabled():
            print(
                f"\n  trained MAP={trained.map:.4f} MP1={trained.mp1:.4f} "
                f"untrained MAP={untrained.map:.4f} "
                f"(pipeline {e2e.elapsed:.0f}s)", end=""
            )
        assert trained.map >= 0.5, f"MAP {trained.map:.4f}"
        assert trained.mp1 >= 0.8, f"MP1 {trained.mp1:.4f}"
        assert trained.map - untrained.map >= 0.15, (
            f"trained {trained.map:.4f} vs untrained {untrained.map:.4f}"
        )
        assert e2e.elapsed < E2E_BUDGET_SECONDS, f"{e2e.elapsed:.0f}s"


def test_pairing_scheme_comparison(e2e, balanced_run, capsys):
    with criterion("pairing scheme side-by-side report", capsys):
        e2e.require()
        balanced_run.require()
        exhaustive = metrics.evaluate_all(
            EmbeddingIndex.load(e2e.paths["index"]), measure="euclidean"
        )
        drawn = metrics.evaluate_all(
            EmbeddingIndex.load(balanced_run.paths["index"]), measure="euclidean"
        )
        with capsys.disabled():
            print(
                f"\n  unbalanced MAP={exhaustive.map:.4f} "
                f"balanced MAP={drawn.map:.4f}", end=""
            )
        assert exhaustive.n_queries == drawn.n_queries == 40
        assert 0.0 <= exhaustive.map <= 1.0
        assert 0.0 <= drawn.map <= 1.0


def test_pipeline_reproducibility(tmp_path_factory, capsys):
    with criterion("byte-identical rerun", capsys):
        runs = []
        for name in ("repro_a", "repro_b"):
            root = tmp_path_factory.mktemp(name)
            run = run_pipeline(root, seed=11, classes=3, per_class=10, epochs=3)
            run.require()
            runs.append(run)
        a, b = runs
        for key in ("model", "index", "history"):
            assert a.paths[key].read_bytes() == b.paths[key].read_bytes(), key
        for report in ("scalars.csv", "mpk_sweep_euclidean.csv",
                       "mpk_sweep_cosine.csv", "per_class_euclidean.csv",
                       "per_class_cosine.csv"):
            assert (a.paths["reports"] / report).read_bytes() == \
                (b.paths["reports"] / report).read_bytes(), report


def test_persistence_round_trips(e2e, capsys):
    with criterion("model and index survive disk round-trips", capsys):
        e2e.require()
        model_a = SiameseModel.load(e2e.paths["model"])
        model_b = SiameseModel.load(e2e.paths["model"])
        assert model_a.to_bytes() == model_b.to_bytes()
        assert model_a.to_bytes() == e2e.paths["model"].read_bytes()
        for wa, wb in zip(model_a.params.weights, model_b.params.weights):
            assert np.array_equal(wa, wb)
        index = EmbeddingIndex.load(e2e.paths["index"])
        resaved = e2e.root / "index_resaved.bin"
        index.save(resaved)
        assert resaved.read_bytes() == e2e.paths["index"].read_bytes()
        cache = FeatureCache.load(e2e.paths["cache"])
        rows = np.asarray(
            [cache.vector(cid) for cid in index.clip_ids], dtype=np.float64
        )
        recomputed = model_a.embed(rows).astype(np.float32)
        assert np.array_equal(recomputed, index.matrix)
        assert index.model_fingerprint == model_a.fingerprint()
