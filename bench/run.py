"""efp benchmark: the whole CLI pipeline on a seeded synthetic corpus.

    python3 bench/run.py --workload acceptance --seed 1 --seconds 1 --trace 0

Run it from the root of a checkout that holds ``src/efp``. Set-up makes the
corpus in this process (``efp synth`` and ``efp split`` through
``efp.cli.main``); ``setup_s`` times it from the cold ``import efp.cli`` to the
written split. Then featurize, train, index and evaluate each run in a
process of their own, timed around the call into ``efp.cli.main``. For
``--seconds`` the query path is then exercised and checked: passes of warm
queries over a few test clips, made in this process with the model and index
loaded. Every artifact is checked against the computations in ``checks.py``.
``--trace 1`` adds a second, traced pass of the same pipeline in this process
and reports per-layer figures in place of the end-to-end ones, among them the
warm query time and the wall time of one-shot ``efp query`` processes.

The last line of stdout is always the result, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything else goes to
the log files under ``.bench_work/<workload>/``. With no ``src/efp`` to run
the benchmark exits 2 and prints no result.
"""

import argparse
import contextlib
import io
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = Path(".bench_work")  # under the checkout's root, one directory per workload
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BUDGET_S = 170          # a run must end within 180 s
STAGES = ("featurize", "train", "index", "evaluate")
QUERY_K = 10
QUERY_CLIPS = 8         # test clips queried round-robin
CLI_QUERY_CLIPS = 4     # of those, queried through efp.cli.main in a traced run
WARM_PASSES_TRACED = 4
FEATURE_SAMPLE = 8      # clips whose features are recomputed
STARTUP_SAMPLES = 5     # fresh `import efp.cli` processes in a traced run

log = logging.getLogger("bench")


@dataclass(frozen=True)
class Workload:
    classes: int
    per_class: int
    ratios: str
    scheme: str
    epochs: int


WORKLOADS = {
    # Training-bound: 9,730 unbalanced pairs over 140 clips; featurize,
    # index and evaluate take under a second each. Quality saturates at MAP 1.
    "acceptance": Workload(5, 40, "0.7,0.1,0.2", "unbalanced", 1),
    # Search-bound: 2,000 clips to featurize, 1,800 to embed and rank all
    # against all, 400 balanced pairs to train on. MAP sits near 0.24.
    "large-index": Workload(20, 100, "0.05,0.05,0.9", "balanced", 5),
}


class Aborted(BaseException):
    """The run cannot go on: a stage failed, the budget ran out, or a signal
    came. Not an Exception, so that a handler for a failed query lets it by."""


def _raise_aborted(signum, _frame):
    if signum == signal.SIGALRM:
        raise Aborted(f"time budget of {BUDGET_S} s exceeded")
    raise Aborted(f"terminated by signal {signum}")


class Bench:
    def __init__(self, root: Path, work: Path, workload: Workload, seed: int, seconds: float):
        self.root, self.work, self.wl, self.seed, self.seconds = root, work, workload, seed, seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)
        self.checks = None  # checks.py, imported after set-up: efp's import of numpy is timed

    def paths(self, sub: str = "") -> dict[str, Path]:
        d = self.work / sub
        return {
            "corpus": d / "corpus",
            "manifest": d / "split.csv",
            "cache": d / "cache.bin",
            "model": d / "model.bin",
            "history": d / "model_history.csv",
            "index": d / "index.bin",
            "eval": d / "eval",
        }

    def argvs(self, p: dict[str, Path]) -> dict[str, list[str]]:
        wl, seed = self.wl, str(self.seed)
        return {
            "synth": ["synth", "--seed", seed, "--classes", str(wl.classes),
                      "--per-class", str(wl.per_class), "--out", str(p["corpus"])],
            "split": ["split", "--seed", seed, "--manifest", str(p["corpus"] / "manifest.csv"),
                      "--ratios", wl.ratios, "--out", str(p["manifest"])],
            "featurize": ["featurize", "--manifest", str(p["manifest"]), "--out", str(p["cache"])],
            "train": ["train", "--seed", seed, "--manifest", str(p["manifest"]),
                      "--cache", str(p["cache"]), "--scheme", wl.scheme,
                      "--epochs", str(wl.epochs), "--out", str(p["model"])],
            "index": ["index", "--model", str(p["model"]), "--cache", str(p["cache"]),
                      "--manifest", str(p["manifest"]), "--split", "test", "--out", str(p["index"])],
            "evaluate": ["evaluate", "--index", str(p["index"]), "--measure", "both",
                         "--out-dir", str(p["eval"])],
        }

    # -- operations

    def in_process(self, argv: list[str], out) -> None:
        """One CLI call through efp.cli.main in this process."""
        import efp.cli

        self.attempted += 1
        try:
            with contextlib.redirect_stdout(out):
                rc = efp.cli.main(argv)
        except Aborted:
            self.failed += 1
            raise
        if rc != 0:
            self.failed += 1
            raise Aborted(f"efp {argv[0]} exited {rc}")

    def call(self, cmd: list[str], out) -> int:
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=subprocess.STDOUT)
        try:
            proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return proc.returncode

    def stage(self, name: str, argv: list[str]) -> dict:
        """One CLI stage in its own process; returns its time and peak RSS."""
        self.attempted += 1
        stats_path = self.work / f"{name}.stats.json"
        try:
            with open(self.work / f"{name}.log", "w", encoding="utf-8") as out:
                rc = self.call([sys.executable, str(BENCH_DIR / "stage.py"), str(stats_path), "--", *argv], out)
        except Aborted:
            self.failed += 1
            raise
        if rc != 0 or not stats_path.exists():
            self.failed += 1
            raise Aborted(f"stage {name} exited {rc}; see {self.work / (name + '.log')}")
        return json.loads(stats_path.read_text(encoding="utf-8"))

    def setup(self) -> float:
        """Corpus and split, timed from the cold import of efp (and numpy)."""
        argv = self.argvs(self.paths())
        with open(self.work / "setup.log", "w", encoding="utf-8") as out:
            t = time.perf_counter()
            self.in_process(argv["synth"], out)
            self.in_process(argv["split"], out)
            return time.perf_counter() - t

    def pipeline(self) -> dict[str, dict]:
        argv = self.argvs(self.paths())
        return {name: self.stage(name, argv[name]) for name in STAGES}

    # -- queries

    def query_clips(self, manifest: list[dict]) -> list[tuple[str, str]]:
        import numpy as np

        test = [r for r in manifest if r["split"] == "test"]
        picks = np.random.default_rng([self.seed, 7]).permutation(len(test))[:QUERY_CLIPS]
        return [(test[i]["clip_id"], test[i]["source_path"]) for i in picks]

    def expected_k(self, manifest) -> int:
        return min(QUERY_K, sum(r["split"] == "test" for r in manifest))

    def warm_query_fn(self, paths: dict[str, Path]):
        """WAV -> features -> embedding -> ranking, with model and index loaded once."""
        import numpy as np
        from efp import features, index, net, wav

        model = net.SiameseModel.load(paths["model"])
        idx = index.EmbeddingIndex.load(paths["index"])

        def one(path):
            clip = list(wav.decode_wav(path, features.DEFAULT_RATE_HZ))[0]
            feat = features.featurize_clip(clip)
            return index.query(idx, model.embed(feat.values.astype(np.float32)), "euclidean", QUERY_K)

        return one

    def warm_pass(self, one, clips, k: int, tracer=None) -> None:
        for cid, path in clips:
            self.attempted += 1
            try:
                with tracer.span("bench.warm_query") if tracer else contextlib.nullcontext():
                    ranking = one(path)
            except Exception:
                log.exception("warm query %s failed", cid)
                self.failed += 1
                continue
            self.problems += self.checks.check_query(cid, list(zip(ranking.ids, ranking.scores)), k)

    def cold_query(self, cid: str, path: str, k: int, errs) -> float | None:
        """One `efp query --wav` process, timed from spawn to exit."""
        p = self.paths()
        self.attempted += 1
        cmd = [sys.executable, "-m", "efp", "query", "--model", str(p["model"]),
               "--index", str(p["index"]), "--wav", path, "-k", str(QUERY_K)]
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=errs, text=True)
        try:
            out, _ = proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - t
        if proc.returncode != 0:
            self.failed += 1
            return None
        self.problems += self.checks.check_query(cid, self.checks.read_ranking_csv(out), k)
        return elapsed

    def query_phase(self, clips, k: int) -> None:
        """Checked warm queries, in whole passes over the query clips, until
        --seconds have gone by. Their time is not a metric (see README)."""
        one = self.warm_query_fn(self.paths())
        end = time.perf_counter() + self.seconds
        while True:
            self.warm_pass(one, clips, k)
            if time.perf_counter() >= end:
                return

    # -- checks

    def check_artifacts(self, stats: dict) -> dict:
        """Every check of checks.py on the untraced run's artifacts."""
        import numpy as np

        C, p, wl = self.checks, self.paths(), self.wl
        manifest = C.read_manifest(p["manifest"])
        cache = C.read_cache(p["cache"])
        model = C.read_model(p["model"])
        index = C.read_index(p["index"])
        rng = np.random.default_rng([self.seed, 11])
        sample = [cache.ids[i] for i in rng.choice(len(cache.ids), size=FEATURE_SAMPLE, replace=False)]
        train_log = (self.work / "train.log").read_text(encoding="utf-8")
        own = C.evaluate_index(index)
        sweeps = {m: C.read_sweep(p["eval"] / f"mpk_sweep_{m}.csv") for m in own}
        raw_map = C.raw_feature_map(cache, manifest)
        self.problems += (
            C.check_features(cache, manifest, sample)
            + C.check_pairs(train_log, manifest, wl.scheme)
            + C.check_history(p["history"], wl.epochs, manifest, wl.scheme, model.margin)
            + C.check_index(index, cache, model, manifest)
            + C.check_evaluate(own, C.read_scalars(p["eval"] / "scalars.csv"), sweeps)
        )
        if not own["euclidean"].map > raw_map:
            self.problems.append(
                f"trained MAP {own['euclidean'].map!r} is not above the raw-feature MAP {raw_map!r}"
            )
        return {"own": own, "raw_map": raw_map, "manifest": manifest, "cache": cache, "model": model}

    # -- the two kinds of run

    def run(self, trace: bool) -> dict[str, float]:
        setup_s = self.setup()
        import checks

        self.checks = checks
        stats = self.pipeline()
        manifest = checks.read_manifest(self.paths()["manifest"])
        clips, k = self.query_clips(manifest), self.expected_k(manifest)
        pipeline_s = sum(stats[s]["main_s"] for s in STAGES)
        if trace:
            return self.traced(stats, pipeline_s, clips, k)
        self.query_phase(clips, k)
        found = self.check_artifacts(stats)
        n_pairs = checks.trained_pair_count((self.work / "train.log").read_text(encoding="utf-8"))
        scalars = checks.read_scalars(self.paths()["eval"] / "scalars.csv")
        log.info("raw-feature MAP %r", found["raw_map"])
        return {
            "setup_s": setup_s,
            "pipeline_s": pipeline_s,
            "train_pairs_per_s": n_pairs * self.wl.epochs / stats["train"]["main_s"],
            "peak_rss_mb": max(stats[s]["peak_rss_mb"] for s in STAGES),
            "map": scalars[("map", "euclidean")],
            "mp1": scalars[("mp1", "euclidean")],
        }

    def traced(self, stats, pipeline_s, clips, k) -> dict[str, float]:
        """The same pipeline again in this process, every efp function in a span."""
        import tracing

        found = self.check_artifacts(stats)
        from efp import net

        tracer = tracing.Tracer()
        batch_rows: list[tuple[int, int]] = []
        tp, untraced = self.paths("traced"), self.paths()
        argv = self.argvs(tp)
        phase_s = {}
        (self.work / "traced").mkdir()
        tracer.install()
        try:
            with open(self.work / "traced.log", "w", encoding="utf-8") as out, \
                    tracing.counting_rows(net, batch_rows):
                for phase in ("synth", "split", *STAGES):
                    with tracer.span(f"bench.{phase}") as sid:
                        self.in_process(argv[phase], out)
                    phase_s[phase] = tracer.spans[sid][tracing.END] - tracer.spans[sid][tracing.START]
                for cid, path in clips[:CLI_QUERY_CLIPS]:
                    text = io.StringIO()
                    with tracer.span("bench.cli_query"):
                        self.in_process(["query", "--model", str(tp["model"]), "--index", str(tp["index"]),
                                         "--wav", path, "-k", str(QUERY_K)], text)
                    self.problems += self.checks.check_query(cid, self.checks.read_ranking_csv(text.getvalue()), k)
                one = self.warm_query_fn(tp)
                for _ in range(WARM_PASSES_TRACED):
                    self.warm_pass(one, clips, k, tracer)
        finally:
            tracer.restore()
        tracer.write(self.work / "trace_spans.csv")
        for name in ("model", "index"):
            if tp[name].read_bytes() != untraced[name].read_bytes():
                self.problems.append(f"traced {name} differs from the untraced run's")

        n_index_rows = len(self.checks.read_index(tp["index"]).ids)
        m = tracing.layer_metrics(tracer, batch_rows, found["model"].dims, n_index_rows, self.wl.epochs)
        m["features.cache_mb"] = tp["cache"].stat().st_size / 1e6
        for s in STAGES:
            m[f"cli.{s}_s"] = phase_s[s]
            m[f"cli.{s}.peak_rss_mb"] = stats[s]["peak_rss_mb"]
        m["cli.startup_ms"] = 1e3 * self.startup()
        with open(self.work / "queries.log", "w", encoding="utf-8") as errs:
            cold = [self.cold_query(cid, path, k, errs) for cid, path in clips]
        m["cli.query_process_ms"] = 1e3 * statistics.median(t for t in cold if t is not None)
        m["trace.overhead_s"] = sum(phase_s[s] for s in STAGES) - pipeline_s
        self.write_report(tracer, found, m)
        return m

    def startup(self) -> float:
        """Median wall time of a fresh interpreter that imports efp.cli."""
        times = []
        for _ in range(STARTUP_SAMPLES):
            self.attempted += 1
            t = time.perf_counter()
            rc = self.call([sys.executable, "-c", "import efp.cli"], subprocess.DEVNULL)
            if rc != 0:
                self.failed += 1
                continue
            times.append(time.perf_counter() - t)
        return statistics.median(times)

    def write_report(self, tracer, found, layer: dict) -> None:
        """Reference figures that are not metrics: MAP before training and of the
        raw features, and each span name's call count, total and self time."""
        import numpy as np
        from efp import cli, net

        C, manifest, cache, model = self.checks, found["manifest"], found["cache"], found["model"]
        row_of = {cid: i for i, cid in enumerate(cache.ids)}
        train_rows = cache.matrix[[row_of[r["clip_id"]] for r in manifest if r["split"] == "train"]]
        std = train_rows.astype(np.float64).std(axis=0)
        init = net.init_params(self.seed + cli.STAGE_SEED_OFFSET["train"], model.dims)
        untrained = C.Model(model.dims, model.margin,
                            train_rows.astype(np.float64).mean(axis=0).astype(np.float32).astype(np.float64),
                            np.where(std > 0, std, 1.0).astype(np.float32).astype(np.float64),
                            init.weights, init.biases)
        test = [r for r in manifest if r["split"] == "test"]
        E = C.embed(untrained, cache.matrix[[row_of[r["clip_id"]] for r in test]])
        d = C.retrieval(np.sqrt(np.maximum(2.0 - 2.0 * E @ E.T, 0.0)),
                        [r["class_label"] for r in test], [r["clip_id"] for r in test], False)
        report = {
            "map": {"untrained": d.map, "raw_features": found["raw_map"],
                    "trained": found["own"]["euclidean"].map},
            "mp1_trained": found["own"]["euclidean"].mp1,
            "layer_metrics": layer,
            "spans": tracer.summary(),
        }
        (self.work / "trace_report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")


def metric_units(root: Path, trace: bool) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "efp" / "__init__.py").is_file():
        print(f"bench: no efp source under {root / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2
    units = metric_units(root, bool(args.trace))

    os.environ.update(BLAS_ENV)  # before numpy is first imported
    for entry in (str(BENCH_DIR), str(root / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    work = root / WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # efp's own logging.basicConfig finds this handler and adds none on stderr
    handler = logging.FileHandler(work / "bench.log", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s"))
    root_logger = logging.getLogger()
    root_logger.addHandler(handler)
    root_logger.setLevel(logging.INFO)

    bench = Bench(root, work, WORKLOADS[args.workload], args.seed, args.seconds)
    metrics: dict[str, float] = {}
    aborted = False
    old = {s: signal.signal(s, _raise_aborted) for s in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM)}
    signal.alarm(BUDGET_S)
    try:
        metrics = bench.run(bool(args.trace))
    except Aborted as exc:
        aborted = True
        bench.problems.append(str(exc))
    except Exception:
        aborted = True
        log.exception("benchmark error")
        bench.problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
    finally:
        signal.alarm(0)
        for s, h in old.items():
            signal.signal(s, h)
        for p in (bench.paths(), bench.paths("traced")):
            shutil.rmtree(p["corpus"], ignore_errors=True)
            p["cache"].unlink(missing_ok=True)
    missing = sorted(set(units) - set(metrics))
    if not aborted and missing:
        bench.problems.append(f"metrics not measured: {missing}")
    for problem in bench.problems:
        log.error("%s", problem)
        print(f"bench: {problem}", file=sys.stderr)
    root_logger.removeHandler(handler)
    handler.close()
    correct = not aborted and not bench.problems
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in units.items() if n in metrics},
    }
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0 if correct and bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
