import math

import numpy as np
import pytest

from efp.corpus import ClipRecord
from efp.errors import DataError
from efp.pairs import (
    PairingConfig,
    PairSet,
    balanced_pairs,
    load_pairs,
    make_pairs,
    positive_pairs,
    save_pairs,
    unbalanced_pairs,
)

from conftest import pair_triples
from oracles import (
    negative_count_oracle,
    negative_pairs_oracle,
    positive_count_oracle,
)


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
    got = pair_triples(positive_pairs(clips_for(sizes)))
    assert len(got) == positive_count_oracle(list(sizes.values()))
    assert all(label == 1 for _, _, label in got)


def test_singleton_classes_make_no_positives():
    assert pair_triples(positive_pairs(clips_for({"a": 1, "b": 1, "c": 1}))) == []


def test_positive_pairs_are_canonical_and_unique():
    got = pair_triples(positive_pairs(clips_for({"a": 5, "b": 3})))
    assert all(a < b for a, b, _ in got)
    assert len({(a, b) for a, b, _ in got}) == len(got)


def test_balanced_two_by_two():
    clips = clips_for({"a": 2, "b": 2})
    got = pair_triples(balanced_pairs(clips, PairingConfig(scheme="balanced", seed=0)))
    assert len(got) == 4
    assert sum(label for _, _, label in got) == 2
    label_of = {c.clip_id: c.class_label for c in clips}
    for a, b, label in got:
        same = label_of[a] == label_of[b]
        assert label == (1 if same else 0)


def test_balanced_deterministic_and_seed_sensitive():
    clips = clips_for({"a": 6, "b": 6, "c": 6})
    cfg = PairingConfig(scheme="balanced", seed=21)
    one = pair_triples(balanced_pairs(clips, cfg))
    two = pair_triples(balanced_pairs(clips, cfg))
    assert one == two
    other = pair_triples(balanced_pairs(clips, PairingConfig(scheme="balanced", seed=22)))
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
        got = pair_triples(balanced_pairs(
            clips_for(sizes), PairingConfig(scheme="balanced", seed=trial)
        ))
        seen = {frozenset((a, b)) for a, b, _ in got}
        assert len(seen) == len(got)
        n_pos = sum(label for _, _, label in got)
        assert n_pos == len(got) - n_pos


def test_balanced_draw_near_exhaustion_stays_valid():
    # 4+2 clips leave only 8 cross-class pairs for 7 negatives
    clips = clips_for({"a": 4, "b": 2})
    got = pair_triples(balanced_pairs(clips, PairingConfig(scheme="balanced", seed=1)))
    n_pos = positive_count_oracle([4, 2])
    assert len(got) == 2 * n_pos
    assert sum(label for _, _, label in got) == n_pos
    seen = {frozenset((a, b)) for a, b, _ in got}
    assert len(seen) == len(got)
    label_of = {c.clip_id: c.class_label for c in clips}
    for a, b, _ in got[n_pos:]:
        assert label_of[a] != label_of[b]


def test_balanced_at_the_boundary_takes_every_cross_pair():
    # 3+1 clips: 3 positives and exactly 3 cross-class pairs
    clips = clips_for({"a": 3, "b": 1})
    got = pair_triples(balanced_pairs(clips, PairingConfig(scheme="balanced", seed=4)))
    every = pair_triples(unbalanced_pairs(clips, PairingConfig()))
    assert got == every
    assert len(got) == 6


def test_balanced_negatives_are_a_canonical_subset_of_unbalanced():
    for seed, sizes in enumerate(({"a": 3, "b": 5}, {"a": 4, "b": 7, "c": 2}, {"a": 6, "b": 6})):
        clips = clips_for(sizes)
        got = pair_triples(balanced_pairs(clips, PairingConfig(scheme="balanced", seed=seed)))
        every = pair_triples(unbalanced_pairs(clips, PairingConfig()))
        negatives = [p for p in got if p[2] == 0]
        assert set(negatives) <= {p for p in every if p[2] == 0}
        assert negatives == sorted(negatives)
        assert [p for p in got if p[2] == 1] == pair_triples(positive_pairs(clips))


def test_unbalanced_two_by_two_is_every_pair():
    got = pair_triples(unbalanced_pairs(clips_for({"a": 2, "b": 2}), PairingConfig()))
    assert len(got) == 6
    assert sum(label for _, _, label in got) == 2


def test_unbalanced_matches_brute_force_enumeration():
    clips = clips_for({"a": 3, "b": 4, "c": 4})
    got = pair_triples(unbalanced_pairs(clips, PairingConfig()))
    label_of = {c.clip_id: c.class_label for c in clips}
    ids = sorted(label_of)
    expected = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            expected.add((a, b, 1 if label_of[a] == label_of[b] else 0))
    assert set(got) == expected
    assert len(got) == len(expected)
    n_neg = len(got) - sum(label for _, _, label in got)
    assert n_neg == negative_count_oracle([3, 4, 4])


def test_ids_are_the_clips_in_some_pair():
    # 3 positives and 8 singleton classes: a balanced draw of 3 negatives
    # from 52 misses most singletons' clips
    clips = clips_for({"a": 3, **{label: 1 for label in "bcdefghi"}})
    every = sorted(c.clip_id for c in clips)
    missed = 0
    for seed in range(10):
        for cfg in (PairingConfig(scheme="balanced", seed=seed), PairingConfig(seed=seed)):
            got = make_pairs(clips, cfg)
            used = sorted({c for a, b, _ in pair_triples(got) for c in (a, b)})
            assert got.ids == used
            missed += len(used) < len(every)
    assert missed
    assert unbalanced_pairs(clips, PairingConfig()).ids == every


def test_pairing_config_validation():
    with pytest.raises(ValueError):
        PairingConfig(scheme="exotic")
    ids = ["x", "y"]
    with pytest.raises(ValueError, match="itself"):
        PairSet(ids, np.array([0]), np.array([0]), np.array([1]))
    with pytest.raises(ValueError, match="label"):
        PairSet(ids, np.array([0]), np.array([1]), np.array([2]))
    with pytest.raises(ValueError, match="range"):
        PairSet(ids, np.array([0]), np.array([2]), np.array([1]))
    with pytest.raises(ValueError, match="range"):
        PairSet(ids, np.array([-1]), np.array([1]), np.array([1]))
    with pytest.raises(ValueError):
        PairSet(ids, np.array([0, 1]), np.array([1]), np.array([1]))


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
    loaded = load_pairs(path)
    assert loaded.ids == pairs.ids
    for name in ("a", "b", "y"):
        assert np.array_equal(getattr(loaded, name), getattr(pairs, name))
    (tmp_path / "bad.csv").write_text("foo,bar\n1,2\n")
    with pytest.raises(DataError):
        load_pairs(tmp_path / "bad.csv")
    with pytest.raises(DataError):
        load_pairs(tmp_path / "missing.csv")


@pytest.mark.parametrize("row", [
    "a/0#0,a/0#0,1",  # a clip paired with itself
    "a/0#0,a/1#0,2",  # a label that is neither 0 nor 1
    "a/0#0,a/1#0,-1",
    "a/0#0,a/1#0,yes",  # a label that is not an integer
    "a/0#0,a/1#0,1.0",
    "a/0#0,a/1#0,99999999999999999999999",
    "a/0#0,a/1#0",  # a short row
    "a/0#0",
    "",
])
def test_malformed_pair_rows_are_data_errors(tmp_path, row):
    path = tmp_path / "pairs.csv"
    path.write_text(f"clip_a,clip_b,label\na/0#0,b/0#0,0\n{row}\n")
    with pytest.raises(DataError, match="malformed pair row"):
        load_pairs(path)


def test_header_only_pair_list_is_empty(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("clip_a,clip_b,label\n")
    got = load_pairs(path)
    assert len(got) == 0 and got.ids == []


def test_negatives_match_the_plain_loop_enumeration():
    """Both schemes' negatives are those of a double loop over the sorted
    clip ids: every one for unbalanced, and for balanced the ones at the
    seeded draw's indices, in canonical order."""
    for sizes in ({"a": 2, "b": 2}, {"b": 4, "a": 7, "c": 3}, {"x": 9, "y": 1, "z": 5}):
        clips = clips_for(sizes)
        every = negative_pairs_oracle(clips)
        positives = pair_triples(positive_pairs(clips))
        got = pair_triples(unbalanced_pairs(clips, PairingConfig()))
        assert got[: len(positives)] == positives
        assert got[len(positives):] == [(a, b, 0) for a, b in every]
        for seed in (0, 3, 17):
            picks = np.random.default_rng([seed]).choice(
                len(every), size=len(positives), replace=False)
            want = positives + [(*every[i], 0) for i in sorted(picks)]
            got = balanced_pairs(clips, PairingConfig(scheme="balanced", seed=seed))
            assert pair_triples(got) == want


def test_balanced_pairs_match_the_full_enumeration(tmp_path):
    """The pairs, and the pairs CSV, are the positives and the plain loop's
    negatives at the seeded draw's sorted ranks: equal and unequal classes,
    ids whose sorted order interleaves the classes, and many small classes."""
    rng = np.random.default_rng(40)
    interleaved = [ClipRecord(f"{i:03d}#0", "x.wav", 0, f"c{rng.integers(4)}") for i in range(60)]
    corpora = [clips_for({"a": 2, "b": 2}), clips_for({"a": 20, "b": 20, "c": 20}),
               clips_for({"b": 4, "a": 17, "c": 3, "d": 9}), interleaved,
               clips_for({f"k{i:02d}": 2 + i % 3 for i in range(25)})]
    for clips in corpora:
        for seed in (0, 5):
            got = balanced_pairs(clips, PairingConfig(scheme="balanced", seed=seed))
            positives = pair_triples(positive_pairs(clips))
            every = negative_pairs_oracle(clips)
            picks = np.random.default_rng([seed]).choice(
                len(every), size=len(positives), replace=False)
            want = positives + [(*every[i], 0) for i in sorted(picks)]
            assert pair_triples(got) == want
            save_pairs(got, tmp_path / "pairs.csv")
            lines = (tmp_path / "pairs.csv").read_text().splitlines()
            assert lines[1:] == [f"{a},{b},{y}" for a, b, y in want]
