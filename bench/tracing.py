"""Spans around the public functions of efp's modules, kept in memory.

``Tracer.install`` replaces every public function and public method defined
in the traced modules with a wrapper that records a span (name, start, end,
parent). It also rebinds the names other efp modules imported, so a call made
inside the package (``train`` calling ``batch_loss_and_grads``, ``cli``
calling ``build_index``) is seen as well. ``Tracer.restore`` puts the
originals back. Nothing in efp is edited.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time

MODULES = ("corpus", "wav", "features", "pairs", "net", "index", "metrics", "cli")

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent id or None]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack.remove(sid)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def _wrap(self, fn, name: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # the span covers the whole iteration; efp drains these with list()
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                sid = tracer._open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(sid)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)
        return wrapper

    # -- patching

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"efp.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                    self._set(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj):
                    for name, member in list(vars(obj).items()):
                        if name.startswith("_"):
                            continue
                        label = f"{short}.{obj.__name__}.{name}"
                        if inspect.isfunction(member):
                            self._set(obj, name, self._wrap(member, label))
                        elif isinstance(member, (classmethod, staticmethod)):
                            self._set(obj, name, type(member)(self._wrap(member.__func__, label)))
        # names one efp module imported from another, e.g. cli.build_index
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "efp" or mod_name.startswith("efp."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped and obj is not wrapped[id(obj)]:
                        self._set(mod, attr, wrapped[id(obj)])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading

    def durations(self) -> tuple[list[float], list[float]]:
        """Each span's duration, and its self time: the duration less its children's."""
        dur = [s[END] - s[START] for s in self.spans]
        own = dur[:]
        for i, s in enumerate(self.spans):
            if s[PARENT] is not None:
                own[s[PARENT]] -= dur[i]
        return dur, own

    def summary(self) -> dict[str, dict]:
        """Call count, total and self time per span name, most self time first."""
        out: dict[str, dict] = {}
        for s, d, o in zip(self.spans, *self.durations()):
            e = out.setdefault(s[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            e["count"] += 1
            e["total_s"] += d
            e["self_s"] += o
        return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))

    def root_of(self) -> list[str]:
        """Name of each span's outermost ancestor, the request it belongs to."""
        roots: list[str] = []
        for s in self.spans:
            roots.append(s[NAME] if s[PARENT] is None else roots[s[PARENT]])
        return roots

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{start!r},{end!r},{'' if parent is None else parent}\n")


@contextlib.contextmanager
def counting_rows(net, batches: list[tuple[int, int]]):
    """Append, for each call of ``net.batch_loss_and_grads``, the clip rows it
    forwards and how many of them are distinct (told apart by their first 16
    standardized values). ``net.train`` looks the function up as a global."""
    fn = net.batch_loss_and_grads

    def counted(params, X1, X2, *args, **kwargs):
        keys = [r.tobytes() for r in X1[:, :16]] + [r.tobytes() for r in X2[:, :16]]
        batches.append((len(keys), len(set(keys))))
        return fn(params, X1, X2, *args, **kwargs)

    net.batch_loss_and_grads = counted
    try:
        yield
    finally:
        net.batch_loss_and_grads = fn


def layer_metrics(tracer: Tracer, batch_rows: list[tuple[int, int]], layer_dims,
                  n_index_rows: int, epochs: int) -> dict[str, float]:
    """Per-layer figures from the spans of one traced pipeline and the row
    counts of its training batches (``counting_rows``).

    Phases are the root spans the benchmark opens around each CLI call
    (``bench.<stage>``) and each query (``bench.cli_query``, ``bench.warm_query``).
    """
    spans, roots = tracer.spans, tracer.root_of()
    dur, own = tracer.durations()

    def ids(name, *phases):
        return [i for i, s in enumerate(spans)
                if s[NAME] == name and (not phases or roots[i] in phases)]

    def total(name, *phases):
        return sum(dur[i] for i in ids(name, *phases))

    def median(name, *phases):
        return statistics.median(dur[i] for i in ids(name, *phases))

    def count(name, *phases):
        return len(ids(name, *phases))

    clips = count("features.featurize_clip", "bench.featurize")
    batches = ids("net.batch_loss_and_grads", "bench.train")
    fwd = total("net.forward_train", "bench.train")
    bwd = sum(own[i] for i in batches)
    if len(batch_rows) != len(batches):
        raise ValueError(f"{len(batch_rows)} counted batches against {len(batches)} traced")
    rows = sum(r for r, _ in batch_rows)
    distinct = sum(d for _, d in batch_rows)
    dims = list(layer_dims)
    macs = [a * b for a, b in zip(dims[:-1], dims[1:])]
    # forward: one GEMM per layer; backward: dW per layer, dX for all but the first
    flop_per_row = 2 * sum(macs) + 2 * sum(macs) + 2 * sum(macs[1:])
    n_params = sum(macs) + sum(dims[1:])
    validation = [i for i in ids("net.forward_eval", "bench.train")
                  if spans[spans[i][PARENT]][NAME] == "net.train"]
    queries = ("bench.cli_query", "bench.warm_query")
    evaluate_s = total("metrics.evaluate_all", "bench.evaluate")
    return {
        "corpus.synth_s": total("corpus.generate_synthetic", "bench.synth"),
        "corpus.split_ms": 1e3 * total("corpus.split_manifest", "bench.split"),
        "wav.decode_ms_per_clip": 1e3 * total("wav.decode_wav", "bench.featurize") / clips,
        "features.stft_ms_per_clip": 1e3 * total("features.stft", "bench.featurize") / clips,
        "features.pool_ms_per_clip": 1e3 * total("features.log_quantize", "bench.featurize") / clips,
        "features.cache_save_ms": 1e3 * total("features.FeatureCache.save", "bench.featurize"),
        "features.cache_load_ms": 1e3 * median("features.FeatureCache.load", "bench.train", "bench.index"),
        "pairs.make_pairs_ms": 1e3 * total("pairs.make_pairs", "bench.train"),
        "net.forward_ms_per_batch": 1e3 * fwd / len(batches),
        "net.backward_ms_per_batch": 1e3 * bwd / len(batches),
        "net.optimizer_step_ms_per_batch": 1e3 * median("net.AdamOptimizer.step", "bench.train"),
        "net.validation_ms_per_epoch": 1e3 * sum(dur[i] for i in validation) / epochs,
        "net.distinct_clip_share": distinct / rows,
        "net.gflop_per_batch": rows * flop_per_row / len(batches) / 1e9,
        "net.optimizer_mb_per_step": 7 * 8 * n_params / 1e6,
        "net.gflop_per_s": rows * flop_per_row / (fwd + bwd) / 1e9,
        "net.embed_ms_per_clip": 1e3 * total("net.SiameseModel.embed", "bench.index") / n_index_rows,
        "net.embed_one_ms": 1e3 * median("net.SiameseModel.embed", *queries),
        "net.model_load_ms": 1e3 * median("net.SiameseModel.load", "bench.cli_query"),
        "net.fingerprint_ms": 1e3 * median("net.SiameseModel.fingerprint", "bench.cli_query"),
        "index.build_ms": 1e3 * total("index.build_index", "bench.index"),
        "index.save_ms": 1e3 * total("index.EmbeddingIndex.save", "bench.index"),
        "index.load_ms": 1e3 * median("index.EmbeddingIndex.load", "bench.cli_query"),
        "index.query_ms": 1e3 * median("index.query", *queries),
        "query.warm_ms": 1e3 * median("bench.warm_query"),
        "metrics.evaluate_s": evaluate_s,
        "metrics.evaluate_ms_per_query": 1e3 * evaluate_s / count("metrics.relevance_for_query", "bench.evaluate"),
    }
