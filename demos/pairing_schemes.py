"""How labeled training pairs are drawn from a split corpus."""

import numpy as np

from efp.corpus import ClipRecord
from efp.pairs import PairingConfig, make_pairs, positive_pairs


def records_for(label, n):
    return [
        ClipRecord(
            clip_id=f"{label}/{label}_{i:03d}.wav#0",
            source_path=f"/corpus/{label}/{label}_{i:03d}.wav",
            segment_index=0,
            class_label=label,
        )
        for i in range(n)
    ]


records = records_for("drums", 5) + records_for("speech", 4) + records_for("rain", 3)
print(f"corpus: {len(records)} clips in 3 classes (5 + 4 + 3)")

positives = positive_pairs(records)
print(f"\nall same-class pairs: {len(positives)} "
      f"(C(5,2) + C(4,2) + C(3,2) = 10 + 6 + 3)")

# a pair set holds index arrays: pair k is ids[a[k]] ~ ids[b[k]], label y[k]
balanced = make_pairs(records, PairingConfig(scheme="balanced", seed=0))
n_neg = int((balanced.y == 0).sum())
print(f"\nbalanced scheme: {len(balanced)} pairs, "
      f"{len(positives)} positive / {n_neg} negative")
print("a seeded uniform draw from the cross-class pairs, no repeats:")
for k in np.flatnonzero(balanced.y == 0)[:4]:
    print(f"  {balanced.ids[balanced.a[k]]}  ~  {balanced.ids[balanced.b[k]]}")

unbalanced = make_pairs(records, PairingConfig(scheme="unbalanced", seed=0))
n_neg = int((unbalanced.y == 0).sum())
print(f"\nunbalanced scheme: {len(unbalanced)} pairs, {n_neg} negative "
      f"(every cross-class pair: 5*4 + 5*3 + 4*3 = {5 * 4 + 5 * 3 + 4 * 3})")

capped = make_pairs(
    records, PairingConfig(scheme="unbalanced", seed=0, max_negatives_per_clip=2)
)
n_neg = int((capped.y == 0).sum())
print(f"capped at 2 negatives per anchor clip: {n_neg} negatives")
