import math

import numpy as np
import pytest

from efp.corpus import ClipRecord
from efp.errors import DataError
from efp.pairs import (
    PairExample,
    PairingConfig,
    balanced_pairs,
    load_pairs,
    make_pairs,
    positive_pairs,
    save_pairs,
    unbalanced_pairs,
)

from oracles import negative_count_oracle, negative_pairs_oracle, positive_count_oracle


def clips_for(sizes):
    """sizes: dict label -> clip count."""
    out = []
    for label, n in sizes.items():
        for i in range(n):
            out.append(
                ClipRecord(
                    clip_id=f"{label}/{i:03d}#0",
                    source_path=f"/x/{label}/{i:03d}.wav",
                    segment_index=0,
                    class_label=label,
                )
            )
    return out


def test_positive_pair_counts():
    assert len(positive_pairs(clips_for({"a": 3}))) == 3
    assert len(positive_pairs(clips_for({"a": 70}))) == math.comb(70, 2)
    sizes = {"a": 4, "b": 7, "c": 2}
    got = positive_pairs(clips_for(sizes))
    assert len(got) == positive_count_oracle(list(sizes.values()))
    assert all(p.label == 1 for p in got)


def test_singleton_classes_make_no_positives():
    assert positive_pairs(clips_for({"a": 1, "b": 1, "c": 1})) == []


def test_positive_pairs_are_canonical_and_unique():
    got = positive_pairs(clips_for({"a": 5, "b": 3}))
    assert all(p.clip_a < p.clip_b for p in got)
    assert len({(p.clip_a, p.clip_b) for p in got}) == len(got)


def test_balanced_two_by_two():
    clips = clips_for({"a": 2, "b": 2})
    got = balanced_pairs(clips, PairingConfig(scheme="balanced", seed=0))
    assert len(got) == 4
    assert sum(p.label for p in got) == 2
    label_of = {c.clip_id: c.class_label for c in clips}
    for p in got:
        same = label_of[p.clip_a] == label_of[p.clip_b]
        assert p.label == (1 if same else 0)


def test_balanced_deterministic_and_seed_sensitive():
    clips = clips_for({"a": 6, "b": 6, "c": 6})
    cfg = PairingConfig(scheme="balanced", seed=21)
    one = balanced_pairs(clips, cfg)
    two = balanced_pairs(clips, cfg)
    assert one == two
    other = balanced_pairs(clips, PairingConfig(scheme="balanced", seed=22))
    assert len(other) == len(one)
    assert other != one


def test_balanced_rejects_when_negatives_cannot_match():
    # 5+1 clips: 10 positives but only 5 cross-class pairs
    with pytest.raises(DataError):
        balanced_pairs(clips_for({"a": 5, "b": 1}), PairingConfig(scheme="balanced"))
    with pytest.raises(DataError):
        balanced_pairs(clips_for({"a": 4}), PairingConfig(scheme="balanced"))


def test_balanced_negatives_never_repeat():
    rng = np.random.default_rng(5)
    for trial in range(10):
        sizes = {
            "a": int(rng.integers(2, 8)),
            "b": int(rng.integers(2, 8)),
            "c": int(rng.integers(2, 8)),
        }
        got = balanced_pairs(
            clips_for(sizes), PairingConfig(scheme="balanced", seed=trial)
        )
        seen = {frozenset((p.clip_a, p.clip_b)) for p in got}
        assert len(seen) == len(got)
        n_pos = sum(p.label for p in got)
        assert n_pos == len(got) - n_pos


def test_balanced_draw_near_exhaustion_stays_valid():
    # 4+2 clips leave only 8 cross-class pairs for 7 negatives
    clips = clips_for({"a": 4, "b": 2})
    got = balanced_pairs(clips, PairingConfig(scheme="balanced", seed=1))
    n_pos = positive_count_oracle([4, 2])
    assert len(got) == 2 * n_pos
    assert sum(p.label for p in got) == n_pos
    seen = {frozenset((p.clip_a, p.clip_b)) for p in got}
    assert len(seen) == len(got)
    label_of = {c.clip_id: c.class_label for c in clips}
    for p in got[n_pos:]:
        assert label_of[p.clip_a] != label_of[p.clip_b]


def test_balanced_at_the_boundary_takes_every_cross_pair():
    # 3+1 clips: 3 positives and exactly 3 cross-class pairs
    clips = clips_for({"a": 3, "b": 1})
    got = balanced_pairs(clips, PairingConfig(scheme="balanced", seed=4))
    every = unbalanced_pairs(clips, PairingConfig())
    assert got == every
    assert len(got) == 6


def test_balanced_negatives_are_a_canonical_subset_of_unbalanced():
    for seed, sizes in enumerate(({"a": 3, "b": 5}, {"a": 4, "b": 7, "c": 2}, {"a": 6, "b": 6})):
        clips = clips_for(sizes)
        got = balanced_pairs(clips, PairingConfig(scheme="balanced", seed=seed))
        every = unbalanced_pairs(clips, PairingConfig())
        negatives = [p for p in got if p.label == 0]
        assert set(negatives) <= {p for p in every if p.label == 0}
        assert negatives == sorted(negatives, key=lambda p: (p.clip_a, p.clip_b))
        assert [p for p in got if p.label == 1] == positive_pairs(clips)


def test_unbalanced_two_by_two_is_every_pair():
    got = unbalanced_pairs(clips_for({"a": 2, "b": 2}), PairingConfig())
    assert len(got) == 6
    assert sum(p.label for p in got) == 2


def test_unbalanced_matches_brute_force_enumeration():
    clips = clips_for({"a": 3, "b": 4, "c": 4})
    got = unbalanced_pairs(clips, PairingConfig())
    label_of = {c.clip_id: c.class_label for c in clips}
    ids = sorted(label_of)
    expected = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            expected.add((a, b, 1 if label_of[a] == label_of[b] else 0))
    assert {(p.clip_a, p.clip_b, p.label) for p in got} == expected
    assert len(got) == len(expected)
    n_neg = len(got) - sum(p.label for p in got)
    assert n_neg == negative_count_oracle([3, 4, 4])


def test_unbalanced_cap_limits_anchor_side():
    clips = clips_for({"a": 4, "b": 4})
    cfg = PairingConfig(scheme="unbalanced", seed=9, max_negatives_per_clip=1)
    got = unbalanced_pairs(clips, cfg)
    negatives = [p for p in got if p.label == 0]
    anchors = [p.clip_a for p in negatives]
    assert len(anchors) == len(set(anchors))
    assert all(a.startswith("a/") for a in anchors)  # canonical order puts "a" first
    assert len(negatives) == 4
    again = unbalanced_pairs(clips, cfg)
    assert got == again
    uncapped = unbalanced_pairs(clips, PairingConfig(scheme="unbalanced", seed=9))
    assert len(uncapped) - sum(p.label for p in uncapped) == 16


def test_pairing_config_validation():
    with pytest.raises(ValueError):
        PairingConfig(scheme="exotic")
    with pytest.raises(ValueError):
        PairingConfig(max_negatives_per_clip=0)
    with pytest.raises(ValueError):
        PairExample("x", "x", 1)
    with pytest.raises(ValueError):
        PairExample("x", "y", 2)


def test_make_pairs_dispatches_on_scheme():
    clips = clips_for({"a": 3, "b": 3})
    bal = make_pairs(clips, PairingConfig(scheme="balanced", seed=1))
    unbal = make_pairs(clips, PairingConfig(scheme="unbalanced", seed=1))
    assert len(bal) == 12
    assert len(unbal) == 15


def test_pair_csv_round_trip(tmp_path):
    pairs = make_pairs(clips_for({"a": 3, "b": 5}), PairingConfig(scheme="balanced", seed=2))
    path = tmp_path / "pairs.csv"
    save_pairs(pairs, path)
    assert load_pairs(path) == pairs
    (tmp_path / "bad.csv").write_text("foo,bar\n1,2\n")
    with pytest.raises(DataError):
        load_pairs(tmp_path / "bad.csv")
    with pytest.raises(DataError):
        load_pairs(tmp_path / "missing.csv")


def test_negatives_match_the_plain_loop_enumeration():
    """Both schemes' negatives are those of a double loop over the sorted
    clip ids: every one for unbalanced, and for balanced the ones at the
    seeded draw's indices, in canonical order."""
    for sizes in ({"a": 2, "b": 2}, {"b": 4, "a": 7, "c": 3}, {"x": 9, "y": 1, "z": 5}):
        clips = clips_for(sizes)
        every = negative_pairs_oracle(clips)
        positives = positive_pairs(clips)
        got = unbalanced_pairs(clips, PairingConfig())
        assert got[: len(positives)] == positives
        assert [(p.clip_a, p.clip_b, p.label) for p in got[len(positives):]] == \
            [(a, b, 0) for a, b in every]
        for seed in (0, 3, 17):
            picks = np.random.default_rng([seed]).choice(
                len(every), size=len(positives), replace=False)
            want = positives + [PairExample(*every[i], 0) for i in sorted(picks)]
            assert balanced_pairs(clips, PairingConfig(scheme="balanced", seed=seed)) == want
