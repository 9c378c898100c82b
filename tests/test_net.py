import logging
import re

import numpy as np
import pytest

from efp import net
from efp.errors import DataError, NumericError
from efp.features import FeatureCache
from efp.net import (
    ADAM_BLOCK,
    AdamOptimizer,
    LossConfig,
    MlpParams,
    SiameseModel,
    TrainConfig,
    batch_loss_and_grads,
    forward_eval,
    forward_train,
    init_params,
    save_history,
    train,
)
from efp.pairs import PairSet

from oracles import (
    adam_reordered_step_oracle,
    adam_step_oracle,
    batch_grad_check,
    contrastive_loss,
    contrastive_oracle,
    embed_one,
    fd_gradients_oracle,
    grad_check,
    groups_oracle,
    mlp_forward_oracle,
    pair_distance,
    pair_loss_and_grads,
    pair_loss_oracle,
    stacked_twin_oracle,
    train_unfolded_oracle,
    twin_branch_oracle,
)

TINY = (6, 5, 4, 3)


def tiny_params(seed=0, dims=TINY):
    return init_params(seed, dims)


from conftest import fd_checkable_pair


def as_lists(params):
    return (
        [w.tolist() for w in params.weights],
        [b.tolist() for b in params.biases],
    )


def test_init_shapes_and_bounds():
    params = init_params(0)
    assert params.layer_dims == (13509, 512, 256, 128)
    assert [w.shape for w in params.weights] == [
        (512, 13509),
        (256, 512),
        (128, 256),
    ]
    for w, (fan_out, fan_in) in zip(params.weights, [(512, 13509), (256, 512), (128, 256)]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= limit
    assert all(np.all(b == 0) for b in params.biases)


def test_init_deterministic_and_seed_sensitive():
    a = tiny_params(3)
    b = tiny_params(3)
    c = tiny_params(4)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_params_validation():
    with pytest.raises(ValueError):
        MlpParams(weights=[], biases=[])
    with pytest.raises(ValueError):
        MlpParams(weights=[np.zeros((3, 2))], biases=[np.zeros(4)])
    with pytest.raises(ValueError):
        MlpParams(
            weights=[np.zeros((3, 2)), np.zeros((2, 4))],
            biases=[np.zeros(3), np.zeros(2)],
        )
    with pytest.raises(ValueError):
        MlpParams(weights=[np.full((2, 2), np.nan)], biases=[np.zeros(2)])


def test_forward_matches_plain_loop_oracle():
    rng = np.random.default_rng(10)
    for trial in range(20):
        dims = tuple(int(rng.integers(2, 7)) for _ in range(4))
        params = init_params(trial, dims)
        x = rng.standard_normal(dims[0])
        got = embed_one(params, x)
        want = mlp_forward_oracle(*as_lists(params), x.tolist())
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_zero_params_embed_to_zero():
    params = MlpParams(
        weights=[np.zeros((4, 6)), np.zeros((3, 4))],
        biases=[np.zeros(4), np.zeros(3)],
    )
    assert np.array_equal(embed_one(params, np.ones(6)), np.zeros(3))


def test_train_mode_without_dropout_equals_eval():
    params = tiny_params(5)
    X = np.random.default_rng(6).standard_normal((8, TINY[0]))
    out, _ = forward_train(params, X, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, forward_eval(params, X))


def test_dropout_cache_reconstructs_output():
    params = tiny_params(7)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((5, TINY[0]))
    out, cache = forward_train(params, X, 0.4, np.random.default_rng(123))
    keep = 1.0 - 0.4
    h = X
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        assert np.array_equal(cache.inputs[l], h)
        h = h @ w.T + b
        if l < params.n_layers - 1:
            mask = cache.masks[l]
            assert set(np.unique(mask)).issubset({0.0, 1.0 / keep})
            h = np.maximum(h, 0.0) * mask
    norm = np.linalg.norm(h, axis=1, keepdims=True)
    h = np.divide(h, norm, out=np.zeros_like(h), where=norm > 0)
    assert np.array_equal(out, h)


def test_distance_identities():
    x = np.random.default_rng(1).standard_normal(9)
    assert pair_distance(x, x) == 0.0
    e1 = np.zeros(4)
    e2 = np.zeros(4)
    e1[0] = 1.0
    e2[1] = 1.0
    assert abs(pair_distance(e1, e2) - np.sqrt(2.0)) < 1e-15
    y = np.random.default_rng(2).standard_normal(9)
    assert pair_distance(x, y) == pair_distance(y, x)
    with pytest.raises(ValueError):
        pair_distance(np.zeros(3), np.zeros(4))


def test_loss_identities_exact():
    assert contrastive_loss(1, 0.0) == 0.0
    assert contrastive_loss(0, 1.5) == 0.0
    assert contrastive_loss(0, 1.0) == 0.0  # exactly at the margin
    assert abs(contrastive_loss(0, 0.5) - 0.125) <= 1e-12
    assert abs(contrastive_loss(1, 2.0) - 2.0) <= 1e-12
    assert abs(contrastive_loss(0, 0.0) - 0.5) <= 1e-12
    rng = np.random.default_rng(3)
    for _ in range(100):
        y = int(rng.integers(0, 2))
        d = float(rng.uniform(0, 3))
        m = float(rng.uniform(0.1, 2))
        assert abs(contrastive_loss(y, d, LossConfig(margin=m)) - contrastive_oracle(y, d, m)) <= 1e-12
    with pytest.raises(ValueError):
        contrastive_loss(1, -0.1)
    for margin in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            LossConfig(margin=margin)


def test_swapping_branches_preserves_loss():
    rng = np.random.default_rng(4)
    params = tiny_params(4)
    for trial in range(100):
        x1 = rng.standard_normal(TINY[0])
        x2 = rng.standard_normal(TINY[0])
        y = trial % 2
        l12, _ = pair_loss_and_grads(params, x1, x2, y, LossConfig())
        l21, _ = pair_loss_and_grads(params, x2, x1, y, LossConfig())
        assert abs(l12 - l21) <= 1e-12


def test_gradients_vanish_past_margin_and_at_zero_distance():
    params = tiny_params(9)
    rng = np.random.default_rng(11)
    x1 = rng.standard_normal(TINY[0])
    x2 = rng.standard_normal(TINY[0])
    d = pair_distance(embed_one(params, x1), embed_one(params, x2))
    assert d > 0
    # dissimilar pair already farther apart than the margin: no pull
    loss, grads = pair_loss_and_grads(params, x1, x2, 0, LossConfig(margin=d / 2))
    assert loss == 0.0
    assert np.all(grads.flat == 0)
    # identical similar pair: distance 0, nothing to do
    loss, grads = pair_loss_and_grads(params, x1, x1, 1, LossConfig())
    assert loss == 0.0
    assert np.all(grads.flat == 0)


def test_analytic_gradients_match_fd_oracle_arrays():
    rng = np.random.default_rng(12)
    params = tiny_params(12)
    x1 = rng.standard_normal(TINY[0])
    x2 = rng.standard_normal(TINY[0])
    for y in (0, 1):
        _, grads = pair_loss_and_grads(params, x1, x2, y, LossConfig())
        weights, biases = as_lists(params)
        ows, obs = fd_gradients_oracle(weights, biases, x1.tolist(), x2.tolist(), y, 1.0)
        for got, want in zip(grads.weights, ows):
            assert np.allclose(got, want, rtol=1e-4, atol=1e-8)
        for got, want in zip(grads.biases, obs):
            assert np.allclose(got, want, rtol=1e-4, atol=1e-8)


def test_grad_check_tiny_networks():
    rng = np.random.default_rng(13)
    for trial in range(6):
        dims = tuple(int(rng.integers(2, 6)) for _ in range(4))
        y = trial % 2
        params, x1, x2 = fd_checkable_pair(100 + trial, dims, y)
        rel = grad_check(params, x1, x2, y)
        assert rel < 1e-4


def test_grad_check_coordinate_sampling_runs_subset():
    params, x1, x2 = fd_checkable_pair(14, TINY, 1)
    rel = grad_check(params, x1, x2, 1, max_coords=10)
    assert rel < 1e-4


def test_adam_step_formula():
    params = MlpParams(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    opt = AdamOptimizer(params, learning_rate=0.01)
    g = 3.0
    opt.step(np.array([g, 0.0]))
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    want = 1.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert params.weights[0][0, 0] == pytest.approx(want, abs=1e-12)
    # second step with the same gradient
    opt.step(np.array([g, 0.0]))
    m = 0.9 * (0.1 * g) + 0.1 * g
    v = 0.999 * (0.001 * g * g) + 0.001 * g * g
    m_hat = m / (1 - 0.9**2)
    v_hat = v / (1 - 0.999**2)
    want -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert params.weights[0][0, 0] == pytest.approx(want, abs=1e-12)
    assert opt.t == 2


def test_blocked_adam_equals_whole_array_oracle():
    rng = np.random.default_rng(30)
    # the vector spans three blocks, the last one partial
    w = rng.standard_normal((7, (2 * ADAM_BLOCK) // 7 + 5))
    b = rng.standard_normal(7)
    params = MlpParams(weights=[w], biases=[b])
    assert params.flat.size > 2 * ADAM_BLOCK and params.flat.size % ADAM_BLOCK
    opt = AdamOptimizer(params, learning_rate=0.01)
    want = [params.flat.copy()]
    ms = [np.zeros_like(params.flat)]
    vs = [np.zeros_like(params.flat)]
    for t in range(1, 5):
        gw = rng.standard_normal(w.shape) * 10.0 ** rng.integers(-9, 3, size=w.shape)
        gb = rng.standard_normal(b.shape)
        grad = np.concatenate((gw, gb), axis=None)
        opt.step(grad)
        adam_reordered_step_oracle(want, [grad], ms, vs, t, 0.01)
        assert np.array_equal(params.flat, want[0])
        assert np.array_equal(opt.m, ms[0])
        assert np.array_equal(opt.v, vs[0])


def per_coordinate_rates(params, lr, column_rates):
    """The learning rate of every coordinate of ``params.flat``: layer 0's
    weights at their column's rate, the rest at ``lr``."""
    rates = np.full(params.flat.size, lr)
    rates[: params.weights[0].size] = np.broadcast_to(column_rates, params.weights[0].shape).ravel()
    return rates


# layer 0's weights in blocks of several whole rows, of one row longer than
# ADAM_BLOCK, and of one row each; a second layer makes the rest span blocks
W0_SHAPES = [(7, 9001), (2, 2 * ADAM_BLOCK + 3), (3, ADAM_BLOCK - 1)]


def two_layer_params(rng, w0_shape):
    return MlpParams(weights=[rng.standard_normal(w0_shape), rng.standard_normal((5, w0_shape[0]))],
                     biases=[np.zeros(w0_shape[0]), np.zeros(5)])


def test_blocked_adam_with_per_coordinate_rates_equals_oracle():
    """Per-column rates for layer 0's weights step as the oracle does with the
    same rate repeated for every coordinate of the column."""
    rng = np.random.default_rng(32)
    for w0_shape in W0_SHAPES:
        params = two_layer_params(rng, w0_shape)
        size = params.flat.size
        column_rates = rng.uniform(1e-4, 1e-1, size=w0_shape[1])
        opt = AdamOptimizer(params, 0.01, column_rates)
        lr = per_coordinate_rates(params, 0.01, column_rates)
        want, ms, vs = [params.flat.copy()], [np.zeros(size)], [np.zeros(size)]
        for t in range(1, 4):
            grad = rng.standard_normal(size)
            opt.step(grad)
            adam_reordered_step_oracle(want, [grad], ms, vs, t, lr)
            assert params.flat.tobytes() == want[0].tobytes()
    with pytest.raises(ValueError, match="column rates"):
        AdamOptimizer(params, 0.01, column_rates[:-1])


def test_adam_moments_are_algorithm_1s_and_the_step_agrees_to_rounding():
    """The reordered step leaves m and v bit-equal to Algorithm 1's and moves
    the parameters as it does up to rounding, for gradients from 1e-9, where
    eps dominates the denominator, to 1e2: within 1e-12 of the largest move,
    since a coordinate that moves back near its start cancels."""
    rng = np.random.default_rng(35)
    w0_shape = W0_SHAPES[0]
    for column_rates in (None, rng.uniform(1e-4, 1e-1, size=w0_shape[1])):
        params = two_layer_params(rng, w0_shape)
        size = params.flat.size
        opt = AdamOptimizer(params, 0.01, column_rates)
        lr = 0.01 if column_rates is None else per_coordinate_rates(params, 0.01, column_rates)
        start = params.flat.copy()
        want, ms, vs = [params.flat.copy()], [np.zeros(size)], [np.zeros(size)]
        for t in range(1, 8):
            grad = rng.standard_normal(size) * 10.0 ** rng.integers(-9, 3, size=size)
            opt.step(grad)
            adam_step_oracle(want, [grad], ms, vs, t, lr)
            assert opt.m.tobytes() == ms[0].tobytes()
            assert opt.v.tobytes() == vs[0].tobytes()
            moved = np.abs(want[0] - start).max()
            assert 0.0 < np.abs(params.flat - want[0]).max() <= 1e-12 * moved


@pytest.mark.parametrize("rate", ["scalar", "vector"])
def test_optimizer_step_allocates_nothing_at_full_size(rate):
    import tracemalloc

    size = net._param_count(net.DEFAULT_LAYER_DIMS)
    params = MlpParams.from_flat(net.DEFAULT_LAYER_DIMS, np.zeros(size))
    grad = np.full(size, 1e-3)
    column_rates = None if rate == "scalar" else np.full(net.DEFAULT_LAYER_DIMS[0], 1e-3)
    opt = AdamOptimizer(params, 1e-3, column_rates)
    tracemalloc.start()
    try:
        opt.step(grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert np.all(params.flat < 0.0)


def test_model_load_widens_the_parameters_once(tmp_path):
    import tracemalloc

    dims = (2000, 512, 256, 128)
    model = SiameseModel(params=init_params(9, dims), margin=1.0,
                         feature_means=np.zeros(dims[0]), feature_stds=np.ones(dims[0]))
    path = tmp_path / "model.bin"
    model.save(path)
    tracemalloc.start()
    try:
        loaded = SiameseModel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 block read from the file and one float64 vector, plus the
    # stats: a second rounding would add a float32 and a float64 copy
    n_values = net._param_count(dims) + 2 * dims[0]
    assert peak < 1.1 * (4 + 8) * n_values
    assert loaded.to_bytes() == model.to_bytes()


@pytest.mark.parametrize("axis", [0, 1], ids=["rows", "columns"])
def test_groups_are_numbered_by_first_slice(axis):
    def slices(A):
        return A.T if axis == 0 else A

    Z = slices(np.array([[1.0, 2.0, 1.0, 3.0, 2.0, 1.0],
                         [0.0, 5.0, 0.0, 1.0, 5.0, 0.0]]))
    first, group, counts = net._groups(Z, axis)
    assert first.tolist() == [0, 1, 3]
    assert group.tolist() == [0, 1, 0, 2, 1, 0]
    assert counts.tolist() == [3, 2, 1]
    distinct = slices(np.random.default_rng(33).standard_normal((4, 7)))
    first, group, counts = net._groups(distinct, axis)
    assert first.tolist() == group.tolist() == list(range(7))
    assert counts.tolist() == [1] * 7
    A = slices(np.random.default_rng(34).standard_normal((12, 5))[:, [3, 1, 3, 0, 1, 4, 3]])
    got = net._groups(A, axis)
    for g, want in zip(got, groups_oracle(A, axis), strict=True):
        assert g.tolist() == want.tolist()


def test_columns_equal_on_the_key_but_not_after_stay_apart():
    """Columns 1 and 3 share column 0's key and differ from it after the key,
    column 5 differs from column 4 in its last value: each group still holds
    equal columns only."""
    x, w = np.random.default_rng(35).standard_normal((2, net._ROW_KEY + 3))
    y = x.copy()
    y[net._ROW_KEY] += 1e-9
    w_last = w.copy()
    w_last[-1] = -w_last[-1]
    Z = np.stack([x, y, x, y, w, w_last], axis=1)
    first, group, counts = net._groups(Z, 1)
    assert group[0] == group[2] != group[1]
    assert group[0] != group[3]
    assert group[4] != group[5]
    assert np.array_equal(Z[:, first][:, group], Z)
    assert counts.sum() == Z.shape[1]


def test_column_groups_hold_under_twice_the_matrix():
    """Grouping the columns of the acceptance corpus's standardized train and
    val rows (160 x 13,509, most columns repeated) allocates less than twice
    the matrix: a sort over whole columns would add a transposed and a sorted
    copy of it."""
    import tracemalloc

    rng = np.random.default_rng(36)
    distinct = rng.standard_normal((160, 3363))
    Z = np.ascontiguousarray(distinct[:, np.sort(rng.integers(0, 3363, size=13509))])
    tracemalloc.start()
    try:
        first, group, counts = net._groups(Z, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(Z[:, first][:, group], Z)
    assert counts.sum() == Z.shape[1]
    assert peak < 2 * Z.nbytes


def test_params_from_foreign_arrays_are_views_of_their_own_flat():
    """Non-contiguous or non-float64 inputs are copied into one new C-contiguous
    float64 vector laid out w0, b0, w1, b1, ...; each layer is a C-contiguous
    view of it, so an optimizer steps every layer and none of the inputs."""
    w0 = np.arange(12.0).reshape(3, 4).T            # (4, 3), Fortran order
    b0 = np.arange(4, dtype=np.float32)
    w1 = np.arange(20.0).reshape(2, 10)[:, ::-3]    # (2, 4), strided
    b1 = np.array([0.5, -0.5])
    inputs = [w0, b0, w1, b1]
    kept = [a.copy() for a in inputs]
    params = MlpParams(weights=[w0, w1], biases=[b0, b1])
    assert params.layer_dims == (3, 4, 2)
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
    assert np.array_equal(params.flat, np.concatenate(inputs, axis=None))
    for view, given in zip([params.weights[0], params.biases[0], params.weights[1],
                            params.biases[1]], inputs):
        assert view.flags.c_contiguous and view.dtype == np.float64
        assert np.shares_memory(view, params.flat)
        assert not any(np.shares_memory(view, a) for a in inputs)
        assert np.array_equal(view, given)
    AdamOptimizer(params, learning_rate=0.01).step(np.ones_like(params.flat))
    assert all(np.all(view < given) for view, given in zip(
        [params.weights[0], params.biases[0], params.weights[1], params.biases[1]], kept))
    assert all(np.array_equal(a, k) for a, k in zip(inputs, kept))


def cluster_cache(seed=20, n_per_class=6, dim=10):
    """Two well-separated Gaussian blobs as fake clip features."""
    rng = np.random.default_rng(seed)
    ids, labels, rows = [], [], []
    for label, center in (("one", -2.0), ("two", 2.0)):
        for i in range(n_per_class):
            ids.append(f"{label}/{i:02d}#0")
            labels.append(label)
            rows.append(center + 0.3 * rng.standard_normal(dim))
    matrix = np.asarray(rows, dtype=np.float32)
    return FeatureCache(freq_bins=dim, time_bins=1, clip_ids=ids, labels=labels, matrix=matrix)


def cluster_pairs(cache):
    pos = [
        (a, b, 1)
        for i, a in enumerate(cache.clip_ids)
        for b in cache.clip_ids[i + 1 :]
        if cache.label_of(a) == cache.label_of(b)
    ]
    neg = [
        (min(a, b), max(a, b), 0)
        for i, a in enumerate(cache.clip_ids)
        for b in cache.clip_ids[i + 1 :]
        if cache.label_of(a) != cache.label_of(b)
    ]
    return PairSet.from_rows(pos + neg)


def test_train_smoke_learns_and_reproduces():
    cache = cluster_cache()
    pairs = cluster_pairs(cache)
    cfg = TrainConfig(epochs=8, batch_size=16, learning_rate=1e-2, seed=1)
    result = train(pairs, pairs, cache, cfg, layer_dims=(10, 8, 6, 4))
    assert len(result.history) == 8
    assert result.history[-1][2] < result.history[0][2]
    val_losses = [row[2] for row in result.history]
    best = min(val_losses)
    assert result.history[result.best_epoch - 1][2] == best
    assert val_losses.index(best) + 1 == result.best_epoch  # earliest on ties
    again = train(pairs, pairs, cache, cfg, layer_dims=(10, 8, 6, 4))
    assert result.model.to_bytes() == again.model.to_bytes()
    assert result.history == again.history


def test_train_logs_one_line_per_epoch(caplog):
    cache = cluster_cache()
    pairs = cluster_pairs(cache)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=6)
    with caplog.at_level(logging.INFO, logger="efp.net"):
        result = train(pairs, pairs, cache, cfg, layer_dims=(10, 8, 6, 4))
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch ")]
    assert len(lines) == cfg.epochs
    for (epoch, train_loss, val_loss), line in zip(result.history, lines):
        got = re.fullmatch(r"epoch (\d+): train loss (\S+), val loss (\S+), (\S+) s, (\S+) pairs/s",
                           line)
        assert got, line
        assert int(got[1]) == epoch
        assert float(got[2]) == pytest.approx(train_loss, rel=1e-5)
        assert float(got[3]) == pytest.approx(val_loss, rel=1e-5)
        assert float(got[4]) >= 0.0 and float(got[5]) > 0.0


def planted_duplicates_cache(seed=26, n_per_class=6, n_distinct=12, dim=40):
    """``cluster_cache`` rows widened to ``dim`` columns, each a copy of one
    of ``n_distinct`` distinct columns, in shuffled order."""
    base = cluster_cache(seed, n_per_class, n_distinct)
    rng = np.random.default_rng(seed)
    source = rng.permutation(np.concatenate(
        (np.arange(n_distinct), rng.integers(0, n_distinct, size=dim - n_distinct))))
    return FeatureCache(freq_bins=dim, time_bins=1, clip_ids=base.clip_ids,
                        labels=base.labels, matrix=base.matrix[:, source])


def test_folded_training_matches_the_unfolded_oracle(monkeypatch):
    """With duplicated input columns the folded layer 0 learns the model the
    full-width loop learns, up to rounding. The float64 parameters are
    compared, before the float32 rounding a model applies, which could split
    two values 1e-14 apart by a float32 step."""
    monkeypatch.setattr(net, "_quantize_f32", lambda a: np.array(a, dtype=np.float64))
    cache = planted_duplicates_cache()
    pairs = cluster_pairs(cache)
    cfg = TrainConfig(epochs=6, batch_size=16, learning_rate=1e-2, dropout=0.0, seed=11)
    dims = (40, 8, 6, 4)
    _, _, counts = net._groups(cache.matrix.astype(np.float64), 1)
    assert counts.size == 12 and counts.max() > 1
    got = train(pairs, pairs, cache, cfg, LossConfig(), dims)
    want, history = train_unfolded_oracle(pairs, pairs, cache, cfg, LossConfig(), dims)
    assert got.history[-1][2] < got.history[0][2]
    assert np.abs(got.model.params.flat - want.params.flat).max() <= 1e-10
    assert np.abs(got.model.params.flat - init_params(11, dims).flat).max() > 1e-3
    for row, want_row in zip(got.history, history, strict=True):
        assert row[0] == want_row[0]
        assert np.allclose(row[1:], want_row[1:], rtol=0, atol=1e-10)


def test_training_without_repeated_columns_writes_the_unfolded_model(monkeypatch):
    cache = cluster_cache(seed=27)
    pairs = cluster_pairs(cache)
    cfg = TrainConfig(epochs=4, batch_size=16, learning_rate=1e-2, seed=12)
    dims = (10, 8, 6, 4)
    got = train(pairs, pairs, cache, cfg, layer_dims=dims)
    want, history = train_unfolded_oracle(pairs, pairs, cache, cfg, LossConfig(), dims)
    assert got.model.to_bytes() == want.to_bytes()
    assert got.history == history
    # equal in float64 too, before a model rounds to float32
    monkeypatch.setattr(net, "_quantize_f32", lambda a: np.array(a, dtype=np.float64))
    got = train(pairs, pairs, cache, cfg, layer_dims=dims)
    want, _ = train_unfolded_oracle(pairs, pairs, cache, cfg, LossConfig(), dims)
    assert got.model.params.flat.tobytes() == want.params.flat.tobytes()


def test_training_without_repeated_columns_holds_no_more_than_the_unfolded_loop():
    """Parameters, best epoch, two Adam moments and the gradient: five
    parameter-sized vectors, as the full-width loop holds. Neither a copy of
    the init nor a vector of learning rates stays alive while training runs."""
    import tracemalloc

    dims = (2000, 512, 256, 128)
    cache = cluster_cache(seed=28, dim=dims[0])
    pairs = cluster_pairs(cache)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=13)
    tracemalloc.start()
    try:
        train(pairs, pairs, cache, cfg, layer_dims=dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 8 * net._param_count(dims)


def test_training_with_repeated_columns_holds_one_full_width_vector():
    """The folded training state (parameters, best epoch, two Adam moments and
    the gradient) plus one full-width float64 vector: the init that is drawn,
    folded and expanded again in place, and rounded in place into the model's
    parameters, with no second full-width copy and no per-coordinate rates."""
    import tracemalloc

    dims = (2000, 512, 256, 128)
    cache = planted_duplicates_cache(seed=29, n_distinct=200, dim=dims[0])
    pairs = cluster_pairs(cache)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=14)
    folded = net._param_count((200,) + dims[1:])
    tracemalloc.start()
    try:
        result = train(pairs, pairs, cache, cfg, layer_dims=dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.model.input_dim == dims[0]
    assert peak < 8 * (5 * folded + net._param_count(dims))


def test_init_params_draws_what_uniform_draws():
    for seed, dims in ((0, net.DEFAULT_LAYER_DIMS), (3, (40, 16, 8)), (5, (1, 1))):
        rng = np.random.default_rng([seed])
        want = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            want += [rng.uniform(-limit, limit, size=(fan_out, fan_in)), np.zeros(fan_out)]
        assert init_params(seed, dims).flat.tobytes() == np.concatenate(want, axis=None).tobytes()


def test_model_rounds_the_vector_it_is_given_in_place():
    params = init_params(8, (6, 5, 4))
    want = params.flat.astype(np.float32).astype(np.float64)
    model = SiameseModel(params=params, margin=1.0, feature_means=np.zeros(6),
                         feature_stds=np.ones(6))
    assert model.params.flat is params.flat
    assert params.flat.tobytes() == want.tobytes()
    narrow = MlpParams.from_flat((6, 5, 4), want.astype(np.float32))
    widened = SiameseModel(params=narrow, margin=1.0, feature_means=np.zeros(6),
                           feature_stds=np.ones(6))
    assert widened.params.flat.dtype == np.float64
    assert widened.params.flat.tobytes() == want.tobytes()


def test_model_bytes_are_made_in_pieces_and_hashed_as_made(tmp_path):
    import hashlib

    dims = (1400, 400, 4)  # params of several write blocks
    assert net._param_count(dims) > 2 * net.binio.WRITE_BLOCK
    model = SiameseModel(params=init_params(9, dims), margin=0.5,
                         feature_means=np.full(1400, 0.5), feature_stds=np.full(1400, 2.0))
    data = model.to_bytes()
    model.save(tmp_path / "model.bin")
    assert (tmp_path / "model.bin").read_bytes() == data
    assert model.fingerprint() == hashlib.sha256(data).digest()
    assert data.endswith(model.params.flat.astype("<f4").tobytes())


def test_train_with_identical_features_leaves_params_at_init():
    dim = 10
    row = np.random.default_rng(21).standard_normal(dim).astype(np.float32)
    cache = FeatureCache(
        freq_bins=dim,
        time_bins=1,
        clip_ids=["c/a#0", "c/b#0"],
        labels=["c", "c"],
        matrix=np.stack([row, row]),
    )
    pairs = PairSet.from_rows([("c/a#0", "c/b#0", 1)])
    cfg = TrainConfig(epochs=3, batch_size=4, dropout=0.0, seed=2)
    result = train(pairs, pairs, cache, cfg, layer_dims=(dim, 6, 4))
    init = init_params(2, (dim, 6, 4))
    for got, want in zip(result.model.params.weights, init.weights):
        assert np.array_equal(got, want.astype(np.float32).astype(np.float64))
    assert all(row[1] == 0.0 and row[2] == 0.0 for row in result.history)


def test_train_rejects_bad_inputs():
    cache = cluster_cache()
    pairs = cluster_pairs(cache)
    with pytest.raises(DataError):
        train(PairSet.from_rows([]), pairs, cache)
    with pytest.raises(DataError):
        train(pairs, PairSet.from_rows([("ghost/a#0", "ghost/b#0", 1)]), cache)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=lr)


def test_train_aborts_on_numeric_blowup():
    cache = cluster_cache()
    pairs = cluster_pairs(cache)
    cfg = TrainConfig(epochs=5, batch_size=16, learning_rate=1e100, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            train(pairs, pairs, cache, cfg, layer_dims=(10, 8, 6, 4))


def test_model_round_trip_is_bitwise(tmp_path):
    cache = cluster_cache()
    pairs = cluster_pairs(cache)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=4)
    model = train(pairs, pairs, cache, cfg, layer_dims=(10, 8, 6, 4)).model
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = SiameseModel.load(path)
    assert loaded.to_bytes() == model.to_bytes()
    assert loaded.fingerprint() == model.fingerprint()
    assert loaded.margin == model.margin
    X = cache.matrix.astype(np.float64)
    assert np.array_equal(loaded.embed(X), model.embed(X))
    single = model.embed(X[0])
    assert single.shape == (4,)
    # single-row and batched matmuls may accumulate in different orders,
    # so agreement here is close-to-ulp rather than bitwise
    assert np.allclose(single, model.embed(X)[0], rtol=1e-12, atol=1e-14)


def test_model_load_rejects_corruption(tmp_path):
    cache = cluster_cache()
    pairs = cluster_pairs(cache)
    model = train(pairs, pairs, cache, TrainConfig(epochs=1, seed=5), layer_dims=(10, 8, 6, 4)).model
    good = model.to_bytes()
    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(DataError):
        SiameseModel.load(bad_magic)
    truncated = tmp_path / "short.bin"
    truncated.write_bytes(good[: len(good) // 2])
    with pytest.raises(DataError):
        SiameseModel.load(truncated)
    with pytest.raises(DataError):
        SiameseModel.load(tmp_path / "missing.bin")
    # version 1 models had a ReLU output layer; embedding them under the
    # normalized head would silently change every embedding
    v1 = tmp_path / "v1.bin"
    v1.write_bytes(good[:4] + (1).to_bytes(4, "little") + good[8:])
    with pytest.raises(DataError):
        SiameseModel.load(v1)
    # an input dim @12 whose arrays could not fit in the file
    huge = tmp_path / "huge.bin"
    huge.write_bytes(good[:12] + (2**32 - 1).to_bytes(4, "little") + good[16:])
    with pytest.raises(DataError, match="header declares"):
        SiameseModel.load(huge)


def test_model_file_stores_flat_as_one_float32_block(tmp_path):
    params = init_params(6, (4, 3, 2))
    model = SiameseModel(params=params, margin=1.0, feature_means=np.zeros(4),
                         feature_stds=np.ones(4))
    path = tmp_path / "model.bin"
    model.save(path)
    # magic, version, layer count, 3 widths, margin, then 4 means and 4 stds
    header = 4 + 4 + 4 + 3 * 4 + 8 + 2 * 4 * 4
    assert path.read_bytes()[header:] == params.flat.astype("<f4").tobytes()
    loaded = SiameseModel.load(path)
    assert np.array_equal(loaded.params.flat, model.params.flat)
    for a in loaded.params.weights + loaded.params.biases:
        assert np.shares_memory(a, loaded.params.flat)


def test_model_validates_stats():
    params = init_params(6, (4, 3, 2))
    with pytest.raises(ValueError):
        SiameseModel(params=params, margin=1.0, feature_means=np.zeros(5), feature_stds=np.ones(5))
    with pytest.raises(ValueError):
        SiameseModel(params=params, margin=1.0, feature_means=np.zeros(4), feature_stds=np.zeros(4))


def test_save_history_file(tmp_path):
    path = tmp_path / "history.csv"
    save_history([(1, 0.5, 0.25), (2, 0.125, 0.0625)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert lines[1] == "1,0.5,0.25"
    assert len(lines) == 3


def test_batch_grads_equal_mean_of_pair_grads():
    rng = np.random.default_rng(22)
    params = tiny_params(22)
    X1 = rng.standard_normal((3, TINY[0]))
    X2 = rng.standard_normal((3, TINY[0]))
    y = np.array([1.0, 0.0, 1.0])
    loss, grads = batch_loss_and_grads(params, X1, X2, y, LossConfig())
    single = [pair_loss_and_grads(params, X1[i], X2[i], int(y[i]), LossConfig()) for i in range(3)]
    assert abs(loss - np.mean([s[0] for s in single])) <= 1e-12
    for l in range(params.n_layers):
        want_w = sum(s[1].weights[l] for s in single) / 3.0
        want_b = sum(s[1].biases[l] for s in single) / 3.0
        assert np.allclose(grads.weights[l], want_w, rtol=0, atol=1e-12)
        assert np.allclose(grads.biases[l], want_b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dims", [TINY, net.DEFAULT_LAYER_DIMS], ids=["tiny", "full"])
def test_stacked_twin_equals_two_branch_oracle(dims):
    """One pass over [X1; X2] gives the loss of two separate branches bit for
    bit (each row's values come from the same operations) and their summed
    gradients up to summation order."""
    rng = np.random.default_rng(25)
    params = tiny_params(25, dims)
    for b in params.biases:
        b += rng.uniform(-0.05, 0.05, size=b.shape)
    X1 = rng.standard_normal((8, dims[0]))
    X2 = rng.standard_normal((8, dims[0]))
    X2[:2] = X1[:2]  # d == 0: no gradient from a dissimilar pair, a pull from a similar one
    y = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    loss, grads = batch_loss_and_grads(params, X1, X2, y, LossConfig(margin=1.5))
    want_loss, want_w, want_b = twin_branch_oracle(
        params.weights, params.biases, X1, X2, y, 1.5)
    assert loss == want_loss
    assert loss > 0.0
    for got, want in zip(grads.weights + grads.biases, want_w + want_b):
        assert np.abs(want).max() > 0.0
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def biased_params(seed, dims):
    rng = np.random.default_rng(seed)
    params = init_params(seed, dims)
    for b in params.biases:
        b += rng.uniform(-0.05, 0.05, size=b.shape)
    return params


def test_batch_with_repeated_clips_equals_two_branch_oracle():
    """Clips repeated within one side and across the two sides go through
    layer 0 once: the loss is the two-branch oracle's bit for bit, and the
    gradients agree up to summation order."""
    rng = np.random.default_rng(36)
    dims = (40, 8, 6, 4)
    params = biased_params(36, dims)
    clips = rng.standard_normal((5, dims[0]))
    a = np.array([0, 1, 0, 2, 3, 0, 4, 1])
    b = np.array([1, 2, 3, 0, 0, 4, 4, 2])
    y = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    X1, X2 = clips[a], clips[b]
    distinct, rows = net._distinct_rows(X1, X2)
    assert distinct.tobytes() == clips[[0, 1, 2, 3, 4]].tobytes()
    assert rows.tolist() == a.tolist() + b.tolist()
    loss, grads = batch_loss_and_grads(params, X1, X2, y, LossConfig(margin=1.5))
    want_loss, want_w, want_b = twin_branch_oracle(
        params.weights, params.biases, X1, X2, y, 1.5)
    assert loss == want_loss
    assert loss > 0.0
    for got, want in zip(grads.weights + grads.biases, want_w + want_b):
        assert np.abs(want).max() > 0.0
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_repeated_rows_keep_their_masks_and_all_but_dw0_stay_bit_equal():
    """With dropout, the distinct-row pass draws every row's mask as the pass
    over all stacked rows does: the loss, the gradients of layers 1 and up and
    every bias gradient are bit-equal to that pass's, and layer 0's weight
    gradient agrees with it up to summation order."""
    rng = np.random.default_rng(37)
    dims = (60, 16, 8, 4)
    params = biased_params(37, dims)
    clips = rng.standard_normal((6, dims[0]))
    a, b = rng.integers(0, 6, size=(2, 12))
    y = (rng.random(12) < 0.5).astype(np.float64)
    X1, X2 = clips[a], clips[b]
    args = (params, X1, X2, y, LossConfig(margin=1.2), 0.3)
    loss, grads = batch_loss_and_grads(*args, np.random.default_rng(4))
    want_loss, want = stacked_twin_oracle(*args, np.random.default_rng(4))
    assert len(net._distinct_rows(X1, X2)[0]) < 2 * len(a)
    assert loss == want_loss
    w0 = grads.weights[0].size
    assert grads.flat[w0:].tobytes() == want.flat[w0:].tobytes()
    assert np.abs(want.weights[0]).max() > 0.0
    assert np.allclose(grads.weights[0], want.weights[0], rtol=0, atol=1e-12)


def test_batch_without_repeats_computes_what_the_stacked_pass_computes():
    rng = np.random.default_rng(38)
    dims = (60, 16, 8, 4)
    params = biased_params(38, dims)
    X1, X2 = rng.standard_normal((2, 10, dims[0]))
    y = (rng.random(10) < 0.5).astype(np.float64)
    assert net._distinct_rows(X1, X2)[1] is None
    args = (params, X1, X2, y, LossConfig(), 0.3)
    loss, grads = batch_loss_and_grads(*args, np.random.default_rng(5))
    want_loss, want = stacked_twin_oracle(*args, np.random.default_rng(5))
    assert loss == want_loss
    assert grads.flat.tobytes() == want.flat.tobytes()


def test_rows_equal_on_the_key_but_not_after_stay_apart():
    rng = np.random.default_rng(39)
    dims = (20, 8, 6, 4)
    params = biased_params(39, dims)
    X1 = rng.standard_normal((3, dims[0]))
    X2 = X1.copy()
    X2[0, -1] += 1e-9              # the same key, a later value differs
    X2[1, net._ROW_KEY] = 0.0      # the first value past the key differs
    distinct, rows = net._distinct_rows(X1, X2)
    assert rows.tolist() == [0, 1, 2, 3, 4, 2]
    assert distinct.tobytes() == np.concatenate((X1, X2[:2])).tobytes()
    y = np.array([1.0, 0.0, 0.0])
    loss, grads = batch_loss_and_grads(params, X1, X2, y, LossConfig(margin=1.5))
    want_loss, want_w, want_b = twin_branch_oracle(
        params.weights, params.biases, X1, X2, y, 1.5)
    assert loss == want_loss
    for got, want in zip(grads.weights + grads.biases, want_w + want_b):
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_grad_check_of_a_batch_whose_pairs_share_clips():
    """Central differences in float64 agree with the gradient of a batch
    whose pairs share two clips, each on both sides and in several pairs."""
    params, x1, x2 = fd_checkable_pair(40, (7, 6, 5, 4), 0)
    X1 = np.stack([x1, x2, x1, x1])
    X2 = np.stack([x2, x1, x2, x1])
    y = np.array([0.0, 1.0, 1.0, 1.0])
    assert len(net._distinct_rows(X1, X2)[0]) == 2
    assert batch_grad_check(params, X1, X2, y) < 1e-4


def test_pair_loss_agrees_with_oracle():
    rng = np.random.default_rng(23)
    params = tiny_params(23)
    weights, biases = as_lists(params)
    for trial in range(25):
        x1 = rng.standard_normal(TINY[0])
        x2 = rng.standard_normal(TINY[0])
        y = trial % 2
        got, _ = pair_loss_and_grads(params, x1, x2, y, LossConfig())
        want = pair_loss_oracle(weights, biases, x1.tolist(), x2.tolist(), y, 1.0)
        assert abs(got - want) <= 1e-12


def test_grad_buffers_are_overwritten_and_fresh_grads_are_not_shared():
    rng = np.random.default_rng(24)
    params = tiny_params(24)
    X1 = rng.standard_normal((5, TINY[0]))
    X2 = rng.standard_normal((5, TINY[0]))
    y = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
    args = (params, X1, X2, y, LossConfig(margin=2.0), 0.3)
    loss, fresh = batch_loss_and_grads(*args, np.random.default_rng(3))
    grads = MlpParams.from_flat(params.layer_dims, np.zeros_like(params.flat))
    grads.flat.fill(np.nan)
    got_loss, got = batch_loss_and_grads(*args, np.random.default_rng(3), grads)
    assert got_loss == loss
    assert got is grads
    assert got.flat.tobytes() == fresh.flat.tobytes()
    _, again = batch_loss_and_grads(*args, np.random.default_rng(3))
    assert not np.shares_memory(fresh.flat, again.flat)


def test_train_calls_the_traced_functions_once_per_batch(monkeypatch):
    """Per batch, ``train`` calls ``net.batch_loss_and_grads`` (as a module
    global) on 2-D pair rows, which calls ``net.forward_train`` once on the
    stacked rows of both sides, and then ``AdamOptimizer.step`` once: the
    calls a profiler wraps
    to time the forward pass, the backward pass and the optimizer step."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(net, "batch_loss_and_grads",
                        counting("batch", net.batch_loss_and_grads))
    monkeypatch.setattr(net, "forward_train", counting("forward", net.forward_train))
    monkeypatch.setattr(AdamOptimizer, "step", counting("step", AdamOptimizer.step))
    cache = cluster_cache()
    pairs = cluster_pairs(cache)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=8)
    train(pairs, pairs, cache, cfg, layer_dims=(10, 8, 6, 4))
    n_batches = cfg.epochs * -(-len(pairs) // cfg.batch_size)
    names = [name for name, _ in calls]
    assert names == ["batch", "forward", "step"] * n_batches
    for name, args in calls:
        if name == "batch":
            assert args[1].ndim == 2 and args[2].ndim == 2
