"""The benchmark's own tests: each output check rejects a tampered artifact,
and the result stays the last line of stdout when a run goes wrong.

    PYTHONPATH=src python3 -m pytest -q bench

They run a 2-class, 20-clip corpus through the real CLI stages (a few seconds).
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run

REPO = Path(__file__).resolve().parent.parent
TINY = run.Workload(classes=2, per_class=10, ratios="0.7,0.1,0.2", scheme="unbalanced", epochs=1)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    bench = run.Bench(REPO, work, TINY, seed=3, seconds=1)
    bench.setup()
    bench.pipeline()
    p = bench.paths()
    return {
        "paths": p,
        "manifest": checks.read_manifest(p["manifest"]),
        "cache": checks.read_cache(p["cache"]),
        "model": checks.read_model(p["model"]),
        "index": checks.read_index(p["index"]),
        "train_log": (work / "train.log").read_text(encoding="utf-8"),
    }


def _copy(m: checks.LabeledMatrix) -> checks.LabeledMatrix:
    return checks.LabeledMatrix(list(m.ids), list(m.labels), m.matrix.copy(), m.fingerprint)


def test_features_match_and_a_changed_value_is_rejected(artifacts):
    cache, manifest = artifacts["cache"], artifacts["manifest"]
    assert checks.check_features(cache, manifest, cache.ids) == []
    bad = _copy(cache)
    bad.matrix[5, 1234] += 1e-3
    problems = checks.check_features(bad, manifest, cache.ids)
    assert len(problems) == 1 and cache.ids[5] in problems[0]


def test_wrong_pair_count_is_rejected(artifacts):
    log, manifest = artifacts["train_log"], artifacts["manifest"]
    assert checks.check_pairs(log, manifest, "unbalanced") == []
    n = checks.trained_pair_count(log)
    assert n == 91  # C(14, 2): 7 train clips in each of 2 classes
    tampered = log.replace(f"on {n} pairs", f"on {n - 1} pairs")
    assert checks.check_pairs(tampered, manifest, "unbalanced")
    assert checks.check_pairs(log, manifest, "balanced")  # 2 * 2 * C(7, 2) = 84


def test_history_check_rejects_a_collapsed_loss(artifacts, tmp_path):
    p, manifest, margin = artifacts["paths"], artifacts["manifest"], artifacts["model"].margin
    assert checks.check_history(p["history"], 1, manifest, "unbalanced", margin) == []
    # 2 val clips of different classes: one negative pair, collapsed loss 0.5
    collapsed = tmp_path / "history.csv"
    collapsed.write_text("epoch,train_loss,val_loss\n1,0.4,0.5\n", encoding="utf-8")
    assert checks.check_history(collapsed, 1, manifest, "unbalanced", margin)
    assert checks.check_history(p["history"], 2, manifest, "unbalanced", margin)


def test_perturbed_index_row_is_rejected(artifacts):
    index, cache, model, manifest = (artifacts[k] for k in ("index", "cache", "model", "manifest"))
    assert checks.check_index(index, cache, model, manifest) == []
    bad = _copy(index)
    bad.matrix[1] = bad.matrix[1] + np.float32(1e-3)
    problems = checks.check_index(bad, cache, model, manifest)
    assert any("forward pass" in s for s in problems)
    assert any("unit length" in s for s in problems)
    swapped = _copy(index)
    swapped.ids[0], swapped.ids[1] = swapped.ids[1], swapped.ids[0]
    assert checks.check_index(swapped, cache, model, manifest)
    stale = _copy(index)
    stale.fingerprint = bytes(32)
    assert checks.check_index(stale, cache, model, manifest) == [
        "index fingerprint is not the SHA-256 of the model file"]


def test_wrong_map_in_scalars_is_rejected(artifacts, tmp_path):
    p, index = artifacts["paths"], artifacts["index"]
    own = checks.evaluate_index(index)
    sweeps = {m: checks.read_sweep(p["eval"] / f"mpk_sweep_{m}.csv") for m in own}
    scalars = checks.read_scalars(p["eval"] / "scalars.csv")
    assert checks.check_evaluate(own, scalars, sweeps) == []
    text = (p["eval"] / "scalars.csv").read_text(encoding="utf-8")
    line = next(s for s in text.splitlines() if s.startswith("map,euclidean,"))
    tampered = tmp_path / "scalars.csv"
    tampered.write_text(text.replace(line, f"map,euclidean,{own['euclidean'].map - 0.01!r}"),
                        encoding="utf-8")
    problems = checks.check_evaluate(own, checks.read_scalars(tampered), sweeps)
    assert len(problems) == 1 and problems[0].startswith("euclidean map")


def test_query_check_wants_the_clip_itself_first_and_ascending_scores():
    good = [("a", 1e-8), ("b", 0.3), ("c", 0.3), ("d", 0.9)]
    assert checks.check_query("a", good, 4) == []
    assert checks.check_query("b", good, 4)
    assert checks.check_query("a", [("a", 1e-8), ("b", 0.3), ("c", 0.2)], 3)
    assert checks.check_query("a", [("a", 0.1), ("b", 0.3)], 2)
    assert checks.check_query("a", good, 10)


def _run_main(monkeypatch, capsys, tmp_path, workload):
    monkeypatch.chdir(REPO)
    monkeypatch.setitem(run.WORKLOADS, "tiny", workload)
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    for var, value in run.BLAS_ENV.items():  # main() sets these; undo it afterwards
        monkeypatch.setenv(var, value)
    rc = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-1])


def test_result_is_the_last_line_when_a_stage_fails(monkeypatch, capsys, tmp_path):
    rc, result = _run_main(monkeypatch, capsys, tmp_path,
                           run.Workload(2, 10, "0.7,0.1,0.2", "no-such-scheme", 1))
    assert rc != 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # synth and split in this process, then featurize; train exits 1 on the bad flag
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 1)


def test_result_is_the_last_line_when_the_run_is_cut_short(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "BUDGET_S", 1)
    rc, result = _run_main(monkeypatch, capsys, tmp_path, TINY)
    assert rc != 0
    assert result["correct"] is False and result["metrics"] == {}
