"""Quickstart: synthesize a toy corpus, train a twin network, and search it."""

import tempfile
import time

from efp import corpus, metrics, pairs
from efp.features import FeatConfig, StftConfig, featurize_manifest
from efp.index import build_index, query
from efp.net import LossConfig, TrainConfig, train

# everything this run produces lands in a throwaway directory
workdir = tempfile.mkdtemp(prefix="efp_quickstart_")
print(f"working in {workdir}")

# 1. a tiny labeled corpus: 3 classes of band-limited noise, 10 files each
manifest = corpus.generate_synthetic(3, 10, 0, f"{workdir}/corpus")
print(f"synthesized {len(manifest)} two-second clips, "
      f"classes: {', '.join(manifest.class_set)}")

# 2. every clip becomes one flat log-spectrogram vector
cache, errors = featurize_manifest(manifest.records, StftConfig(), FeatConfig())
assert not errors
print(f"feature cache: {len(cache)} vectors of {cache.dim} values each")

# 3. split source files 60/20/20, then pair up the train and val splits
split = corpus.split_manifest(manifest, (0.6, 0.2, 0.2), 0)
pair_cfg = pairs.PairingConfig(scheme="unbalanced", seed=0)
train_pairs = pairs.make_pairs(split.subset("train"), pair_cfg)
val_pairs = pairs.make_pairs(split.subset("val"), pair_cfg)
n_pos = int(train_pairs.y.sum())
print(f"train pairs: {n_pos} positive, {len(train_pairs) - n_pos} negative")

# 4. a short training run; the checkpoint with the lowest val loss wins
t0 = time.perf_counter()
result = train(
    train_pairs,
    val_pairs,
    cache,
    TrainConfig(epochs=5, batch_size=32, seed=0),
    LossConfig(margin=1.0),
)
print(f"trained 5 epochs in {time.perf_counter() - t0:.1f}s, "
      f"best epoch {result.best_epoch}")
for epoch, train_loss, val_loss in result.history:
    print(f"  epoch {epoch}: train loss {train_loss:.4f}  val loss {val_loss:.4f}")

# 5. embed the held-out test split into a searchable index
test_ids = [r.clip_id for r in split.subset("test")]
index = build_index(result.model, cache, test_ids)
print(f"index holds {len(index)} embeddings of {index.dim} dimensions")

# 6. query by example: rank the database against the first test clip
probe = test_ids[0]
ranking = query(index, index.vector(probe), "euclidean", k=5, exclude=probe)
print(f"query {probe} ({index.label_of(probe)}):")
for rank, (cid, label, score) in enumerate(ranking, start=1):
    marker = "same class" if label == index.label_of(probe) else "other class"
    print(f"  {rank}. {cid:<28} distance {score:.4f}  [{marker}]")

# 7. retrieval quality with every test clip as the query
report = metrics.evaluate_all(index, measure="euclidean",
                              k_values=range(1, 6), headline_k=5)
print(f"MAP {report.map:.3f}  first-hit precision {report.mp1:.3f}  "
      f"top-5 precision {report.headline_mpk:.3f}")
