import ast
import concurrent.futures
import hashlib
import importlib
import importlib.util
import inspect
import json
import logging
import os
import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from efp import binio, cli, corpus
from efp import index as index_mod
from efp import pairs as pairs_mod
from efp.features import FeatureCache
from efp.index import EmbeddingIndex
from efp.net import SiameseModel

from conftest import pair_triples, write_malformed_wav, write_wav


def wav_hash(root):
    digest = hashlib.sha256()
    for p in sorted(Path(root).rglob("*.wav")):
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pipeline")
    corpus_dir = root / "corpus"
    paths = {
        "root": root,
        "corpus": corpus_dir,
        "manifest": corpus_dir / "manifest.csv",
        "split": root / "split.csv",
        "cache": root / "features.bin",
        "model": root / "model.bin",
        "history": root / "model_history.csv",
        "index": root / "index.bin",
        "reports": root / "reports",
    }
    steps = [
        ["synth", "--classes", "2", "--per-class", "8", "--seed", "7",
         "--out", str(corpus_dir)],
        ["featurize", "--manifest", str(paths["manifest"]),
         "--out", str(paths["cache"])],
        ["split", "--manifest", str(paths["manifest"]), "--ratios", "0.5,0.25,0.25",
         "--seed", "7", "--out", str(paths["split"])],
        ["train", "--manifest", str(paths["split"]), "--cache", str(paths["cache"]),
         "--epochs", "3", "--seed", "7", "--out", str(paths["model"])],
        ["index", "--model", str(paths["model"]), "--cache", str(paths["cache"]),
         "--manifest", str(paths["split"]), "--split", "test",
         "--out", str(paths["index"])],
        ["evaluate", "--index", str(paths["index"]), "--measure", "both",
         "--k-max", "3", "--headline-k", "3", "--out-dir", str(paths["reports"])],
    ]
    for argv in steps:
        rc = cli.main(argv)
        assert rc == 0, f"step {argv[0]} exited with {rc}"
    return paths


def test_pipeline_writes_all_artifacts(pipeline):
    for key in ("manifest", "split", "cache", "model", "history", "index"):
        assert pipeline[key].is_file(), key
    for name in (
        "scalars.csv",
        "mpk_sweep_euclidean.csv",
        "mpk_sweep_cosine.csv",
        "per_class_euclidean.csv",
        "per_class_cosine.csv",
    ):
        assert (pipeline["reports"] / name).is_file(), name
    scalars = (pipeline["reports"] / "scalars.csv").read_text().splitlines()
    assert scalars[0] == "metric,measure,value"
    assert len(scalars) == 1 + 2 * 5
    history = pipeline["history"].read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_loss"
    assert len(history) == 1 + 3
    idx = EmbeddingIndex.load(pipeline["index"])
    assert len(idx) == 4
    model = SiameseModel.load(pipeline["model"])
    assert idx.model_fingerprint == model.fingerprint()


def test_index_without_manifest_covers_whole_cache(pipeline, tmp_path):
    out = tmp_path / "full.bin"
    rc = cli.main([
        "index", "--model", str(pipeline["model"]), "--cache", str(pipeline["cache"]),
        "--out", str(out),
    ])
    assert rc == 0
    assert len(EmbeddingIndex.load(out)) == 16


def test_query_by_clip_id(pipeline, capsys):
    split = corpus.Manifest.load(pipeline["split"])
    query_id = split.subset("test")[0].clip_id
    rc = cli.main([
        "query", "--model", str(pipeline["model"]), "--index", str(pipeline["index"]),
        "--clip-id", query_id, "--measure", "euclidean", "-k", "3", "--exclude-self",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rank,clip_id,class_label,score"
    assert len(lines) == 1 + 3
    for rank, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        assert parts[0] == str(rank)
        assert parts[1] != query_id
        float(parts[3])


def test_query_default_k_clamps_to_database(pipeline, capsys, caplog):
    split = corpus.Manifest.load(pipeline["split"])
    query_id = split.subset("test")[0].clip_id
    with caplog.at_level(logging.WARNING):
        rc = cli.main([
            "query", "--model", str(pipeline["model"]),
            "--index", str(pipeline["index"]), "--clip-id", query_id,
        ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 4
    assert any("clamping" in rec.message for rec in caplog.records)
    first = lines[1].split(",")
    assert first[1] == query_id
    assert first[3] == "0.0"


def test_query_by_wav_finds_the_stored_clip(pipeline, capsys):
    split = corpus.Manifest.load(pipeline["split"])
    record = split.subset("test")[0]
    rc = cli.main([
        "query", "--model", str(pipeline["model"]), "--index", str(pipeline["index"]),
        "--wav", record.source_path, "-k", "2",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 2
    top = lines[1].split(",")
    assert top[1] == record.clip_id
    assert float(top[3]) < 1e-2


def test_query_by_wav_calls_the_traced_functions(pipeline, monkeypatch):
    """`efp query --wav` calls SiameseModel.load, SiameseModel.fingerprint and
    index.query, the calls a profiler wraps (with every name an efp module
    imported them under) to time a one-shot query."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    original = index_mod.query
    wrapped = counting("index.query", original)
    for name, module in list(sys.modules.items()):
        if name == "efp" or name.startswith("efp."):
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, wrapped)
    monkeypatch.setattr(
        SiameseModel, "load", classmethod(counting("load", SiameseModel.load.__func__))
    )
    monkeypatch.setattr(
        SiameseModel, "fingerprint", counting("fingerprint", SiameseModel.fingerprint)
    )
    record = corpus.Manifest.load(pipeline["split"]).subset("test")[0]
    rc = cli.main([
        "query", "--model", str(pipeline["model"]), "--index", str(pipeline["index"]),
        "--wav", record.source_path, "-k", "2",
    ])
    assert rc == 0
    assert {"load", "fingerprint", "index.query"} <= set(calls)


def test_query_warns_on_model_index_mismatch(pipeline, tmp_path, caplog):
    other_model = tmp_path / "other.bin"
    rc = cli.main([
        "train", "--manifest", str(pipeline["split"]), "--cache", str(pipeline["cache"]),
        "--epochs", "1", "--seed", "99", "--out", str(other_model),
    ])
    assert rc == 0
    split = corpus.Manifest.load(pipeline["split"])
    query_id = split.subset("test")[0].clip_id
    with caplog.at_level(logging.WARNING, logger="efp.cli"):
        rc = cli.main([
            "query", "--model", str(other_model), "--index", str(pipeline["index"]),
            "--clip-id", query_id, "-k", "1",
        ])
    assert rc == 0
    assert any("different model" in rec.message for rec in caplog.records)


def test_evaluate_single_measure_writes_only_that_measure(pipeline, tmp_path, caplog):
    out_dir = tmp_path / "reports"
    with caplog.at_level(logging.INFO, logger="efp.cli"):
        rc = cli.main([
            "evaluate", "--index", str(pipeline["index"]), "--measure", "cosine",
            "--k-max", "3", "--headline-k", "3", "--out-dir", str(out_dir),
        ])
    assert rc == 0
    timings = [rec.message for rec in caplog.records if "queries/s" in rec.message]
    assert len(timings) == 1 and timings[0].startswith("evaluate cosine: ")
    assert (out_dir / "mpk_sweep_cosine.csv").is_file()
    assert not (out_dir / "mpk_sweep_euclidean.csv").exists()
    scalars = (out_dir / "scalars.csv").read_text().splitlines()
    assert all(",cosine," in line for line in scalars[1:])


def test_usage_errors_exit_1(pipeline, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    not_dict = tmp_path / "list.json"
    not_dict.write_text("[1, 2]")
    cases = [
        ["synth", "--classes", "1", "--out", str(tmp_path / "c1")],
        ["synth", "--classes", "2", "--per-class", "3", "--out", str(tmp_path / "c2")],
        ["synth", "--classes", "2", "--per-class", "6", "--config", str(bad_json),
         "--out", str(tmp_path / "c3")],
        ["synth", "--classes", "2", "--per-class", "6", "--config", str(not_dict),
         "--out", str(tmp_path / "c4")],
        ["synth", "--classes", "2", "--per-class", "6",
         "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "c5")],
        ["featurize"],
        ["split", "--manifest", str(pipeline["manifest"]), "--ratios", "0.5,0.5",
         "--out", str(tmp_path / "s.csv")],
        ["split", "--manifest", str(pipeline["manifest"]), "--ratios", "a,b,c",
         "--out", str(tmp_path / "s.csv")],
        ["split", "--manifest", str(pipeline["manifest"]), "--ratios", "0.9,0.05,0.04",
         "--out", str(tmp_path / "s.csv")],
        ["train", "--manifest", str(pipeline["split"]), "--cache", str(pipeline["cache"]),
         "--scheme", "triplets", "--out", str(tmp_path / "m.bin")],
        # Adam is the only optimizer and Hann the only window: neither is a flag
        ["train", "--manifest", str(pipeline["split"]), "--cache", str(pipeline["cache"]),
         "--optimizer", "adam", "--out", str(tmp_path / "m.bin")],
        ["featurize", "--manifest", str(pipeline["manifest"]), "--window-fn", "hann",
         "--out", str(tmp_path / "f.bin")],
        ["query", "--model", str(pipeline["model"]), "--index", str(pipeline["index"]),
         "--measure", "manhattan", "--clip-id", "x"],
        ["query", "--model", str(pipeline["model"]), "--index", str(pipeline["index"])],
        ["query", "--model", str(pipeline["model"]), "--index", str(pipeline["index"]),
         "--clip-id", "x", "--wav", "y.wav"],
        ["evaluate", "--index", str(pipeline["index"]), "--k-max", "0",
         "--out-dir", str(tmp_path / "r")],
        ["bogus"],
    ]
    for argv in cases:
        assert cli.main(argv) == cli.EXIT_USAGE, argv


@pytest.mark.parametrize("command,rate", [
    ("synth", "0"), ("featurize", "0"), ("featurize", "-5"), ("query", "0")])
def test_rate_must_be_a_positive_integer(pipeline, tmp_path, capsys, command, rate):
    """A sample rate that is not a positive integer is a parse error, before
    any clip is written or decoded."""
    wav = corpus.Manifest.load(pipeline["split"]).subset("test")[0].source_path
    argv = {
        "synth": ["synth", "--classes", "2", "--per-class", "6",
                  "--out", str(tmp_path / "c")],
        "featurize": ["featurize", "--manifest", str(pipeline["manifest"]),
                      "--out", str(tmp_path / "f.bin")],
        "query": ["query", "--model", str(pipeline["model"]),
                  "--index", str(pipeline["index"]), "--wav", wav],
    }[command]
    capsys.readouterr()
    assert cli.main(argv + ["--rate", rate]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--rate" in err and "Traceback" not in err, err
    assert not (tmp_path / "c").exists() and not (tmp_path / "f.bin").exists()


@pytest.mark.parametrize("flag,value", [
    ("--learning-rate", "-1"), ("--learning-rate", "nan"), ("--margin", "inf"),
    ("--amplitude-floor", "nan"), ("--amplitude-floor", "inf")])
def test_settings_that_are_not_positive_and_finite_exit_1(pipeline, tmp_path, capsys,
                                                          flag, value):
    if flag == "--amplitude-floor":
        argv = ["featurize", "--manifest", str(pipeline["manifest"])]
    else:
        argv = ["train", "--manifest", str(pipeline["split"]), "--cache", str(pipeline["cache"])]
    out = tmp_path / "out.bin"
    assert cli.main(argv + [flag, value, "--out", str(out)]) == cli.EXIT_USAGE
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def test_bad_efp_seed_env_exits_1(tmp_path, monkeypatch):
    monkeypatch.setenv("EFP_SEED", "not-a-number")
    rc = cli.main(["synth", "--classes", "2", "--per-class", "6",
                   "--out", str(tmp_path / "c")])
    assert rc == cli.EXIT_USAGE


def test_data_errors_exit_2(pipeline, tmp_path):
    cases = [
        ["featurize", "--manifest", str(tmp_path / "missing.csv"),
         "--out", str(tmp_path / "f.bin")],
        ["train", "--manifest", str(pipeline["manifest"]),
         "--cache", str(pipeline["cache"]), "--out", str(tmp_path / "m.bin")],
        ["query", "--model", str(pipeline["model"]), "--index", str(pipeline["index"]),
         "--clip-id", "ghost/clip#0"],
        ["index", "--model", str(pipeline["cache"]), "--cache", str(pipeline["cache"]),
         "--out", str(tmp_path / "i.bin")],
        ["evaluate", "--index", str(tmp_path / "missing.bin"),
         "--out-dir", str(tmp_path / "r")],
    ]
    for argv in cases:
        assert cli.main(argv) == cli.EXIT_DATA, argv


def test_oversized_header_counts_exit_2(pipeline, tmp_path, capsys):
    cache = pipeline["cache"].read_bytes()
    big_count = tmp_path / "count.bin"
    big_count.write_bytes(cache[:16] + (2**40).to_bytes(8, "little") + cache[24:])
    big_bins = tmp_path / "bins.bin"
    big_bins.write_bytes(cache[:8] + (2**20).to_bytes(4, "little") * 2 + cache[16:])
    index = pipeline["index"].read_bytes()
    bad_index = tmp_path / "index.bin"
    bad_index.write_bytes(index[:12] + (2**40).to_bytes(8, "little") + index[20:])
    capsys.readouterr()
    for bad_cache in (big_count, big_bins):
        rc = cli.main(["train", "--manifest", str(pipeline["split"]), "--cache", str(bad_cache),
                       "--epochs", "1", "--out", str(tmp_path / "m.bin")])
        assert rc == cli.EXIT_DATA
    rc = cli.main(["evaluate", "--index", str(bad_index), "--out-dir", str(tmp_path / "r")])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("header declares") == 3
    assert "Traceback" not in err


def test_invalid_utf8_in_cache_index_and_manifest_exits_2(pipeline, tmp_path, capsys):
    def with_ff(src, offset, name):
        data = bytearray(Path(src).read_bytes())
        data[offset] = 0xFF
        (tmp_path / name).write_bytes(bytes(data))
        return str(tmp_path / name)

    # the first clip id's bytes follow its u32 length: at 28 in a cache
    # (24-byte header), at 56 in an index (52-byte header with fingerprint),
    cache = with_ff(pipeline["cache"], 28, "cache.bin")
    index = with_ff(pipeline["index"], 56, "index.bin")
    # and the first row's clip id follows the manifest's header line
    manifest = with_ff(pipeline["split"], len(",".join(corpus.MANIFEST_HEADER)) + 1, "m.csv")
    # a cache whose last row is cut short passes the header's size check
    cut = tmp_path / "cut.bin"
    cut.write_bytes(Path(pipeline["cache"]).read_bytes()[:-4])
    capsys.readouterr()
    cases = [
        (["index", "--model", str(pipeline["model"]), "--cache", cache,
          "--out", str(tmp_path / "i.bin")], cache),
        (["evaluate", "--index", index, "--out-dir", str(tmp_path / "r")], index),
        (["split", "--manifest", manifest, "--out", str(tmp_path / "s.csv")], manifest),
        (["train", "--manifest", str(pipeline["split"]), "--cache", str(cut),
          "--epochs", "1", "--out", str(tmp_path / "m.bin")], str(cut)),
    ]
    for argv, bad_file in cases:
        assert cli.main(argv) == cli.EXIT_DATA, argv
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err, err
        assert bad_file in err, err


def rewrite_cache(src, dst, ids):
    """``src``'s records of ``ids``, in that order, written to ``dst`` as they
    are, unchecked: an id may repeat, keeping the row of its first record."""
    from efp.features import CACHE_MAGIC, CACHE_VERSION

    cache = FeatureCache.load(src)
    with open(dst, "wb") as f:
        f.write(CACHE_MAGIC)
        binio.write_u32(f, CACHE_VERSION)
        binio.write_u32(f, cache.freq_bins)
        binio.write_u32(f, cache.time_bins)
        binio.write_u64(f, len(ids))
        binio.write_records(f, ids, [cache.label_of(c) for c in ids], cache.rows(ids))
    return str(dst)


@pytest.mark.parametrize("stage", ["train", "index"])
def test_cache_faults_in_rows_a_stage_skips_exit_2(pipeline, tmp_path, capsys, stage):
    """train reads only its train and val rows, and index only the rows it
    indexes, yet a cache that is cut inside a skipped row, or repeats an id
    among the skipped rows, fails as it does for a full load; so does a cache
    that lacks a clip the stage needs."""
    split = corpus.Manifest.load(pipeline["split"])
    used = [r.clip_id for r in split.subset("test")]
    if stage == "train":
        used = [r.clip_id for r in split.subset("train") + split.subset("val")]
    skipped = [c for c in FeatureCache.load(pipeline["cache"]).clip_ids if c not in used]
    assert len(skipped) >= 2
    cut = rewrite_cache(pipeline["cache"], tmp_path / "cut.bin", used + skipped)
    Path(cut).write_bytes(Path(cut).read_bytes()[:-6])
    twice = rewrite_cache(pipeline["cache"], tmp_path / "twice.bin",
                          used + skipped[:-1] + skipped[:1])
    missing = rewrite_cache(pipeline["cache"], tmp_path / "missing.bin", used[1:] + skipped)
    capsys.readouterr()
    for cache, message in ((cut, "truncated"), (twice, "duplicate clip_id"),
                           (missing, f"{used[0]!r} not in file")):
        if stage == "train":
            argv = ["train", "--manifest", str(pipeline["split"]), "--cache", cache,
                    "--epochs", "1", "--out", str(tmp_path / "m.bin")]
        else:
            argv = ["index", "--model", str(pipeline["model"]), "--cache", cache,
                    "--manifest", str(pipeline["split"]), "--out", str(tmp_path / "i.bin")]
        assert cli.main(argv) == cli.EXIT_DATA, argv
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, err


def test_import_leaves_scipy_out():
    """Only reading WAV files needs scipy, and only synth's pool needs
    concurrent.futures, so the stages that use neither do not pay for
    importing them."""
    import os
    import subprocess

    code = "import sys, efp.cli; print(sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent'))))"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unwritable_outputs_exit_2(pipeline, tmp_path, capsys):
    """An output in a missing directory, or an output directory that is a
    file, is a data error that names the output, not a traceback."""
    missing = tmp_path / "nodir"
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    capsys.readouterr()
    cases = [
        (["featurize", "--manifest", str(pipeline["manifest"]),
          "--out", str(missing / "x.bin")], missing / "x.bin"),
        (["train", "--manifest", str(pipeline["split"]), "--cache", str(pipeline["cache"]),
          "--epochs", "1", "--out", str(missing / "m.bin")], missing / "m.bin"),
        (["split", "--manifest", str(pipeline["manifest"]), "--ratios", "0.5,0.25,0.25",
          "--out", str(missing / "s.csv")], missing / "s.csv"),
        (["evaluate", "--index", str(pipeline["index"]), "--out-dir", str(a_file)], a_file),
    ]
    for argv, out in cases:
        assert cli.main(argv) == cli.EXIT_DATA, argv
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err, err
        assert str(out) in err and ".tmp" not in err, err
    assert not missing.exists()


def test_synth_clip_that_cannot_be_written_exits_2(tmp_path, monkeypatch, capsys):
    """A WAV path that is a directory is a data error, not a traceback. No
    temporary file is left, the runs not yet started are cancelled, and every
    pool thread has ended when synth returns."""
    shutdowns = []

    class SpyPool(concurrent.futures.ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            shutdowns.append((args, kwargs))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    out = tmp_path / "corpus"
    blocker = out / "class01" / "class01_003.wav"
    blocker.mkdir(parents=True)
    capsys.readouterr()
    threads_before = threading.active_count()
    rc = cli.main(["synth", "--classes", "3", "--per-class", "6", "--out", str(out)])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err, err
    assert str(blocker) in err and ".tmp" not in err, err
    assert shutdowns == [((), {"cancel_futures": True})]
    assert threading.active_count() == threads_before
    assert not list(out.rglob("*.tmp"))
    assert blocker.is_dir() and not any(blocker.iterdir())
    assert not (out / "manifest.csv").exists()


def test_synth_runs_every_traced_function_in_the_calling_thread(tmp_path, monkeypatch):
    """bench/tracing.py wraps the public efp functions and keeps one span
    stack, which is not thread-safe; synth's pool threads must call none of
    them."""
    spec = importlib.util.spec_from_file_location(
        "efp_bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    tracer = tracing.Tracer()
    opened_in = []
    open_span = tracer._open

    def recording_open(name):
        opened_in.append((name, threading.current_thread()))
        return open_span(name)

    tracer._open = recording_open
    tracer.install()
    try:
        rc = cli.main(["synth", "--classes", "3", "--per-class", "6",
                       "--out", str(tmp_path / "corpus")])
    finally:
        tracer.restore()
    assert rc == 0
    assert "corpus.generate_synthetic" in {name for name, _ in opened_in}
    assert {thread for _, thread in opened_in} == {threading.current_thread()}


@pytest.mark.parametrize("kind", ["cache", "index", "model"])
def test_interrupted_save_keeps_the_previous_file(pipeline, tmp_path, monkeypatch, kind):
    load = {"cache": FeatureCache.load, "index": EmbeddingIndex.load,
            "model": SiameseModel.load}[kind]
    path = tmp_path / "artifact.bin"
    shutil.copyfile(pipeline[kind], path)
    artifact = load(path)
    before = path.read_bytes()
    calls = []
    real_write = binio.write_f32_array

    def failing_write(f, a):
        calls.append(1)
        if len(calls) == 2:  # one array in: the temporary file has a part
            raise OSError("disk full")
        real_write(f, a)

    monkeypatch.setattr(binio, "write_f32_array", failing_write)
    with pytest.raises(OSError, match="disk full"):
        artifact.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    monkeypatch.undo()
    artifact.save(path)
    assert path.read_bytes() == before


def test_traced_span_names_are_functions_the_tracer_wraps():
    """Every `<module>.<function>` or `<module>.<Class>.<method>` span that
    bench/tracing.py's layer_metrics reads names a function of that module or
    a method in that class's own __dict__: the tracer wraps only those, so an
    inherited method would leave its span empty."""
    source = (Path(__file__).resolve().parents[1] / "bench" / "tracing.py").read_text()
    tree = ast.parse(source)
    modules = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "MODULES"
    )
    layer_metrics = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    )
    names = {
        call.args[0].value for call in ast.walk(layer_metrics)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id in ("total", "median", "count", "ids")
        and call.args and isinstance(call.args[0], ast.Constant)
        and call.args[0].value.split(".")[0] in modules
    }
    assert len(names) > 20
    for name in names:
        module, *owner, attr = name.split(".")
        mod = importlib.import_module(f"efp.{module}")
        if owner:
            cls = getattr(mod, owner[0])
            assert attr in vars(cls), name
        else:
            assert inspect.isfunction(getattr(mod, attr)), name
            assert getattr(mod, attr).__module__ == mod.__name__, name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_blowup_exits_3(pipeline, tmp_path):
    rc = cli.main([
        "train", "--manifest", str(pipeline["split"]), "--cache", str(pipeline["cache"]),
        "--learning-rate", "1e100", "--epochs", "4",
        "--out", str(tmp_path / "m.bin"),
    ])
    assert rc == cli.EXIT_NUMERIC


@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
def test_featurize_partial_failure_keeps_good_clips(pipeline, tmp_path, capsys):
    base = corpus.Manifest.load(pipeline["manifest"])
    ghost = corpus.ClipRecord(
        clip_id="ghost/missing#0",
        source_path=str(tmp_path / "missing.wav"),
        segment_index=0,
        class_label="ghost",
    )
    # a header whose data chunk id is overwritten, which scipy's parser
    # fails on with an UnboundLocalError
    headless = corpus.ClipRecord(
        clip_id="ghost/headless#0",
        source_path=str(write_malformed_wav(tmp_path / "headless.wav", "no-data-chunk")),
        segment_index=0,
        class_label="ghost",
    )
    # a float32 file with one NaN sample, which np.clip would pass on
    nan_samples = np.zeros(40000)
    nan_samples[5] = np.nan
    nan = corpus.ClipRecord(
        clip_id="ghost/nan#0",
        source_path=str(write_wav(tmp_path / "nan.wav", nan_samples, dtype=np.float32)),
        segment_index=0,
        class_label="ghost",
    )
    broken = corpus.Manifest(records=(*base.records, ghost, headless, nan))
    manifest_path = tmp_path / "broken.csv"
    broken.save(manifest_path)
    cache_path = tmp_path / "partial.bin"
    rc = cli.main([
        "featurize", "--manifest", str(manifest_path), "--out", str(cache_path),
    ])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("featurize error") == 3
    assert "missing.wav" in err and "headless.wav" in err and "nan.wav" in err
    assert len(FeatureCache.load(cache_path)) == len(base.records)


def test_seed_precedence_flag_config_env_default(tmp_path, monkeypatch):
    monkeypatch.delenv("EFP_SEED", raising=False)
    config = tmp_path / "cfg.json"
    config.write_text('{"seed": 123}')

    def synth(name, *extra):
        out = tmp_path / name
        argv = ["synth", "--classes", "2", "--per-class", "6", "--out", str(out)]
        assert cli.main(argv + list(extra)) == 0
        return wav_hash(out)

    flag_and_config = synth("a", "--seed", "7", "--config", str(config))
    flag_only = synth("b", "--seed", "7")
    config_only = synth("c", "--config", str(config))
    seed_123 = synth("d", "--seed", "123")
    default = synth("e")
    seed_0 = synth("f", "--seed", "0")
    monkeypatch.setenv("EFP_SEED", "123")
    env_only = synth("g")
    env_and_config = synth("h", "--config", str(config))

    assert flag_and_config == flag_only
    assert config_only == seed_123
    assert default == seed_0
    assert env_only == seed_123
    assert env_and_config == seed_123
    assert flag_only != seed_123
    assert default != seed_123


def test_config_file_sets_epochs_and_flag_overrides(pipeline, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"epochs": 4}')

    def train(name, *extra):
        out = tmp_path / name
        argv = [
            "train", "--manifest", str(pipeline["split"]),
            "--cache", str(pipeline["cache"]), "--seed", "7",
            "--config", str(config), "--out", str(out),
        ]
        assert cli.main(argv + list(extra)) == 0
        return (tmp_path / f"{Path(name).stem}_history.csv").read_text().splitlines()

    assert len(train("m4.bin")) == 1 + 4
    assert len(train("m2.bin", "--epochs", "2")) == 1 + 2


def test_stage_seeds_offset_one_global_seed(pipeline, tmp_path):
    cli_dir = tmp_path / "cli_corpus"
    assert cli.main(["synth", "--classes", "2", "--per-class", "6", "--seed", "7",
                     "--out", str(cli_dir)]) == 0
    lib_dir = tmp_path / "lib_corpus"
    corpus.generate_synthetic(2, 6, 7, lib_dir)
    assert wav_hash(cli_dir) == wav_hash(lib_dir)

    split_out = tmp_path / "split.csv"
    assert cli.main(["split", "--manifest", str(pipeline["manifest"]),
                     "--ratios", "0.5,0.25,0.25", "--seed", "7",
                     "--out", str(split_out)]) == 0
    base = corpus.Manifest.load(pipeline["manifest"])
    lib_split = corpus.split_manifest(base, (0.5, 0.25, 0.25), 8)
    got = [(r.clip_id, r.split) for r in corpus.Manifest.load(split_out).records]
    assert got == [(r.clip_id, r.split) for r in lib_split.records]

    pairs_out = tmp_path / "pairs.csv"
    assert cli.main(["pairs", "--manifest", str(pipeline["split"]), "--split", "train",
                     "--scheme", "balanced", "--seed", "7",
                     "--out", str(pairs_out)]) == 0
    train_records = corpus.Manifest.load(pipeline["split"]).subset("train")
    lib_cfg = pairs_mod.PairingConfig(scheme="balanced", seed=9)
    assert pair_triples(pairs_mod.load_pairs(pairs_out)) == \
        pair_triples(pairs_mod.make_pairs(train_records, lib_cfg))


def test_same_seed_reruns_are_byte_identical(pipeline, tmp_path):
    def run(name, seed):
        d = tmp_path / name
        d.mkdir()
        cache, model, index = d / "f.bin", d / "m.bin", d / "i.bin"
        steps = [
            ["featurize", "--manifest", str(pipeline["split"]), "--out", str(cache)],
            ["train", "--manifest", str(pipeline["split"]), "--cache", str(cache),
             "--epochs", "2", "--seed", seed, "--out", str(model)],
            ["index", "--model", str(model), "--cache", str(cache),
             "--manifest", str(pipeline["split"]), "--split", "test",
             "--out", str(index)],
        ]
        for argv in steps:
            assert cli.main(argv) == 0
        return cache.read_bytes(), model.read_bytes(), index.read_bytes()

    first = run("r1", "5")
    second = run("r2", "5")
    assert first == second
    other_seed = run("r3", "6")
    assert other_seed[1] != first[1]


def test_small_training_run_does_not_collapse(tmp_path):
    """Fast guard against embedding collapse: every clip embedded to one row.

    A collapsed model scores exactly the all-equal val loss, the share of
    negative val pairs times 0.5 * margin^2, and indexes one distinct row.
    The learning rate is 3x the default so that a head prone to collapse
    (such as a ReLU output layer) shows it within 3 short epochs.
    """
    corpus_dir = tmp_path / "corpus"
    split, cache = tmp_path / "split.csv", tmp_path / "features.bin"
    model, index = tmp_path / "model.bin", tmp_path / "index.bin"
    steps = [
        ["synth", "--classes", "5", "--per-class", "10", "--seed", "0",
         "--out", str(corpus_dir)],
        ["featurize", "--manifest", str(corpus_dir / "manifest.csv"), "--out", str(cache)],
        ["split", "--manifest", str(corpus_dir / "manifest.csv"),
         "--ratios", "0.5,0.3,0.2", "--seed", "0", "--out", str(split)],
        ["train", "--manifest", str(split), "--cache", str(cache), "--epochs", "3",
         "--batch-size", "16", "--learning-rate", "3e-3", "--seed", "0",
         "--out", str(model)],
        ["index", "--model", str(model), "--cache", str(cache), "--manifest", str(split),
         "--split", "test", "--out", str(index)],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    labels = [r.class_label for r in corpus.Manifest.load(split).subset("val")]
    n_pairs = n_neg = 0
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            n_pairs += 1
            n_neg += a != b
    all_equal = n_neg / n_pairs * 0.5 * 1.0**2
    final_val = float((tmp_path / "model_history.csv").read_text().splitlines()[-1].split(",")[2])
    assert final_val < all_equal
    rows = EmbeddingIndex.load(index).matrix
    assert len(np.unique(rows, axis=0)) > 1


# Each subcommand's option strings, frozen from the parser as it stood before
# its settings flags were generated from the config dataclasses, less
# --optimizer and --window-fn, which went when Adam became the only optimizer
# and Hann the only window.
OPTION_STRINGS = {
    "synth": "--classes --config --help --out --per-class --rate --seed -h",
    "featurize": "--amplitude-floor --config --fft-size --freq-bins --help --hop-ms "
                 "--manifest --out --rate --seed --time-bins --window-ms -h",
    "split": "--config --help --manifest --out --ratios --seed -h",
    "pairs": "--config --help --manifest --max-negatives-per-clip --out --scheme --seed "
             "--split -h",
    "train": "--batch-size --cache --config --dropout --epochs --help --history "
             "--learning-rate --manifest --margin --max-negatives-per-clip --out "
             "--scheme --seed -h",
    "index": "--cache --config --help --manifest --model --out --seed --split -h",
    "query": "--amplitude-floor --clip-id --config --exclude-self --fft-size --freq-bins "
             "--help --hop-ms --index --measure --model --rate --seed --time-bins --wav "
             "--window-ms -h -k",
    "evaluate": "--config --headline-k --help --index --k-max --measure --out-dir --seed -h",
}


def test_every_subcommand_keeps_its_option_strings():
    commands = cli.build_parser().commands
    assert set(commands) == set(OPTION_STRINGS)
    for name, command in commands.items():
        got = sorted(o for action in command._actions for o in action.option_strings)
        assert got == OPTION_STRINGS[name].split(), name


@pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
def test_help_renders_for_every_subcommand(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def _write_config(tmp_path, name, settings):
    path = tmp_path / name
    path.write_text(json.dumps(settings))
    return str(path)


def test_featurize_settings_from_file_match_flags(pipeline, tmp_path):
    # window_fn names no flag, so the file's rectangular window is ignored
    config = _write_config(tmp_path, "cfg.json",
                           {"hop_ms": 16, "freq_bins": 40, "window_fn": "rectangular"})
    base = ["featurize", "--manifest", str(pipeline["manifest"]), "--out"]
    assert cli.main(base + [str(tmp_path / "file.bin"), "--config", config]) == 0
    assert cli.main(base + [str(tmp_path / "flag.bin"), "--hop-ms", "16",
                            "--freq-bins", "40"]) == 0
    from_file = (tmp_path / "file.bin").read_bytes()
    assert from_file == (tmp_path / "flag.bin").read_bytes()
    assert from_file != pipeline["cache"].read_bytes()


def test_train_settings_from_file_match_flags(pipeline, tmp_path):
    # optimizer names no flag, so the file's SGD is ignored and Adam trains
    config = _write_config(tmp_path, "cfg.json",
                           {"dropout": 0.0, "margin": 0.5, "optimizer": "sgd"})
    base = ["train", "--manifest", str(pipeline["split"]), "--cache", str(pipeline["cache"]),
            "--epochs", "1", "--seed", "7", "--out"]
    assert cli.main(base + [str(tmp_path / "file.bin"), "--config", config]) == 0
    assert cli.main(base + [str(tmp_path / "flag.bin"), "--dropout", "0.0",
                            "--margin", "0.5"]) == 0
    assert cli.main(base + [str(tmp_path / "default.bin")]) == 0
    from_file = (tmp_path / "file.bin").read_bytes()
    assert from_file == (tmp_path / "flag.bin").read_bytes()
    assert from_file != (tmp_path / "default.bin").read_bytes()


def test_query_settings_from_file_match_flags(pipeline, tmp_path, capsys):
    config = _write_config(tmp_path, "cfg.json", {"measure": "cosine", "k": 3})
    query_id = corpus.Manifest.load(pipeline["split"]).subset("test")[0].clip_id
    base = ["query", "--model", str(pipeline["model"]), "--index", str(pipeline["index"]),
            "--clip-id", query_id]
    capsys.readouterr()
    outputs = []
    for extra in (["--config", config], ["--measure", "cosine", "-k", "3"],
                  ["--measure", "euclidean", "-k", "3"]):
        assert cli.main(base + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + 3
    assert outputs[0] != outputs[2]


def test_malformed_config_values_exit_1_and_name_the_key(pipeline, tmp_path, capsys):
    train = ["train", "--manifest", str(pipeline["split"]), "--cache", str(pipeline["cache"]),
             "--out", str(tmp_path / "m.bin")]
    query = ["query", "--model", str(pipeline["model"]), "--index", str(pipeline["index"]),
             "--clip-id", "x"]
    index = ["index", "--model", str(pipeline["model"]), "--cache", str(pipeline["cache"]),
             "--out", str(tmp_path / "i.bin")]
    cases = [(train, {"epochs": bad}) for bad in (None, {}, [1], True, 2.7)]
    cases += [(train, {"scheme": "triplets"}), (query, {"exclude_self": "yes"}),
              (query, {"measure": "manhattan"}), (index, {"split": "bogus"})]
    capsys.readouterr()
    for i, (argv, settings) in enumerate(cases):
        config = _write_config(tmp_path, f"bad{i}.json", settings)
        assert cli.main(argv + ["--config", config]) == cli.EXIT_USAGE, settings
        err = capsys.readouterr().err
        assert "Traceback" not in err, err
        assert next(iter(settings)) in err, err
    assert not (tmp_path / "m.bin").exists()


def test_keys_of_other_commands_are_ignored(tmp_path):
    config = _write_config(tmp_path, "cfg.json", {"epochs": 4})
    rc = cli.main(["synth", "--classes", "2", "--per-class", "6", "--config", config,
                   "--out", str(tmp_path / "c")])
    assert rc == 0
