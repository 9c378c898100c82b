"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (plain Python
loops, no shared code with the package) so that agreement is meaningful. The
one exception is the last section: single-pair wrappers over ``efp.net`` (the
pair distance and loss the gradient checks difference, and its loss and
gradients), the finite-difference check of its analytic gradient, the batch
loss and gradient over every stacked row, and the training loop over
full-width parameters.
"""

import math

import numpy as np

from efp import net


def ap_oracle(bits, m_j):
    """Average precision: mean over positive positions of precision-so-far."""
    if m_j == 0:
        raise ValueError("undefined for m_j == 0")
    total = 0.0
    for i in range(1, len(bits) + 1):
        precision_here = sum(bits[:i]) / i
        total += precision_here * bits[i - 1]
    return total / m_j


def first_hit_oracle(bits):
    for i, bit in enumerate(bits, start=1):
        if bit:
            return 1.0 / i
    raise ValueError("no hit present")


def p_at_k_oracle(bits, k):
    k = min(k, len(bits))
    return sum(bits[:k]) / k


def euclidean_oracle(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def cosine_oracle(a, b):
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(x * x for x in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (norm_a * norm_b)


def ranking_oracle(entries, q, measure, k):
    """entries: list of (clip_id, embedding). Returns [(clip_id, score)].

    Euclidean sorts ascending, cosine descending; ties break on clip_id.
    """
    scored = []
    for cid, emb in entries:
        if measure == "euclidean":
            scored.append((euclidean_oracle(q, emb), cid))
        else:
            scored.append((cosine_oracle(q, emb), cid))
    if measure == "euclidean":
        scored.sort(key=lambda t: (t[0], t[1]))
    else:
        scored.sort(key=lambda t: (-t[0], t[1]))
    return [(cid, score) for score, cid in scored[:k]]


def direct_scores_oracle(matrix, q, measure):
    """One query scored against every row, as the package did before its
    GEMM-form ranking: float64 math on the float32 rows, verbatim."""
    M = matrix.astype(np.float64)
    q = np.asarray(q, dtype=np.float64)
    if measure == "euclidean":
        return np.sqrt(np.sum(np.square(M - q), axis=1))
    q_norm = np.sqrt(np.sum(np.square(q)))
    e_norms = np.sqrt(np.sum(np.square(M), axis=1))
    dots = M @ q
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((q_norm > 0) & (e_norms > 0), dots / (e_norms * q_norm), 0.0)


def sorted_candidates_oracle(clip_ids, labels, matrix, q, measure, exclude=None):
    """[(score, clip_id, label)] for every row but `exclude`, best first:
    euclidean ascending, cosine descending, ties on ascending clip_id."""
    scores = direct_scores_oracle(matrix, q, measure)
    candidates = [
        (float(scores[i]), clip_ids[i], labels[i])
        for i in range(len(clip_ids))
        if clip_ids[i] != exclude
    ]
    descending = measure == "cosine"
    candidates.sort(key=lambda c: (-c[0] if descending else c[0], c[1]))
    return candidates


def evaluate_oracle(clip_ids, labels, matrix, measure, k_values, headline_k):
    """Every row queried against the others (self excluded), one sorted list
    per query, then AP, first-hit and P@K in position loops. Returns the
    fields of the package's EvalReport."""
    db_size = len(clip_ids) - 1
    clamped = {k: min(k, db_size) for k in set(k_values) | {headline_k}}
    aps, first_hits = [], []
    per_k = {k: [] for k in k_values}
    per_class = {}
    n_unscorable = 0
    for i, cid in enumerate(clip_ids):
        ranked = sorted_candidates_oracle(clip_ids, labels, matrix, matrix[i], measure, cid)
        bits = [1 if label == labels[i] else 0 for _, _, label in ranked]
        m_j = sum(bits)
        if m_j == 0:
            n_unscorable += 1
            continue
        hits = 0
        total = 0.0
        for pos, bit in enumerate(bits, start=1):
            if bit:
                hits += 1
                total += hits / pos
        aps.append(total / m_j)
        first_hits.append(1.0 / (bits.index(1) + 1))
        for k in per_k:
            per_k[k].append(sum(bits[: clamped[k]]) / clamped[k])
        headline = sum(bits[: clamped[headline_k]]) / clamped[headline_k]
        per_class.setdefault(labels[i], []).append(headline)
    return dict(
        map=float(np.mean(aps)),
        mp1=float(np.mean(first_hits)),
        mpk={k: float(np.mean(v)) for k, v in sorted(per_k.items())},
        per_class_mpk={label: float(np.mean(v)) for label, v in sorted(per_class.items())},
        measure=measure,
        n_queries=len(aps),
        n_unscorable=n_unscorable,
        headline_k=headline_k,
    )


def mlp_forward_oracle(weights, biases, x):
    """Plain-loop MLP forward pass: ReLU hidden layers, a linear output layer,
    then the output divided by its L2 norm (an all-zero output stays zero)."""
    h = list(x)
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        out = []
        for row_idx in range(len(w)):
            acc = b[row_idx]
            for col_idx in range(len(h)):
                acc += w[row_idx][col_idx] * h[col_idx]
            out.append(acc if layer == last or acc > 0 else 0.0)
        h = out
    norm = math.sqrt(sum(v * v for v in h))
    if norm == 0.0:
        return h
    return [v / norm for v in h]


def contrastive_oracle(y, d, margin):
    if y == 1:
        return 0.5 * d * d
    gap = margin - d
    return 0.5 * gap * gap if gap > 0 else 0.0


def pair_loss_oracle(weights, biases, x1, x2, y, margin):
    e1 = mlp_forward_oracle(weights, biases, x1)
    e2 = mlp_forward_oracle(weights, biases, x2)
    return contrastive_oracle(y, euclidean_oracle(e1, e2), margin)


def fd_gradients_oracle(weights, biases, x1, x2, y, margin, eps=1e-5):
    """Central-difference gradients of the pair loss for every parameter.

    weights/biases are nested Python lists (mutated and restored in place);
    returns (dws, dbs) with the same nesting.
    """

    def loss():
        return pair_loss_oracle(weights, biases, x1, x2, y, margin)

    dws = []
    dbs = []
    for layer, (w, b) in enumerate(zip(weights, biases)):
        dw = [[0.0] * len(w[0]) for _ in range(len(w))]
        for i in range(len(w)):
            for j in range(len(w[0])):
                saved = w[i][j]
                w[i][j] = saved + eps
                hi = loss()
                w[i][j] = saved - eps
                lo = loss()
                w[i][j] = saved
                dw[i][j] = (hi - lo) / (2.0 * eps)
        db = [0.0] * len(b)
        for i in range(len(b)):
            saved = b[i]
            b[i] = saved + eps
            hi = loss()
            b[i] = saved - eps
            lo = loss()
            b[i] = saved
            db[i] = (hi - lo) / (2.0 * eps)
        dws.append(dw)
        dbs.append(db)
    return dws, dbs


def twin_branch_oracle(weights, biases, X1, X2, y, margin):
    """Mean contrastive loss of a batch of pairs and its gradient, the way the
    package computed them before it stacked the twin into one pass: each side
    forwarded on its own (ReLU hidden layers, no dropout, unit-norm output),
    backpropagated on its own into fresh arrays, and the two gradients summed.
    Returns (loss, dws, dbs) with the package's whole-array operations, so the
    loss can be compared bit for bit."""

    def forward(X):
        h = np.asarray(X, dtype=np.float64)
        inputs, gates = [], []
        for w, b in zip(weights[:-1], biases[:-1]):
            inputs.append(h)
            z = h @ w.T + b
            gates.append(z > 0)
            h = np.where(z > 0, z, 0.0)
        inputs.append(h)
        u = h @ weights[-1].T + biases[-1]
        norms = np.sqrt(np.sum(np.square(u), axis=1))
        return u / np.where(norms > 0.0, norms, 1.0)[:, np.newaxis], norms, inputs, gates

    def backprop(branch, grad_out):
        e, norms, inputs, gates = branch
        radial = np.sum(e * grad_out, axis=1, keepdims=True)
        delta = (grad_out - e * radial) / np.where(norms > 0.0, norms, np.inf)[:, np.newaxis]
        dws, dbs = [None] * len(weights), [None] * len(weights)
        for layer in range(len(weights) - 1, -1, -1):
            dws[layer] = delta.T @ inputs[layer]
            dbs[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ weights[layer]) * gates[layer - 1]
        return dws, dbs

    first, second = forward(X1), forward(X2)
    y = np.asarray(y, dtype=np.float64)
    diff = first[0] - second[0]
    d = np.sqrt(np.sum(np.square(diff), axis=1))
    hinge = np.maximum(0.0, margin - d)
    loss = float(np.where(y == 1, 0.5 * d * d, 0.5 * hinge * hinge).mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(y == 1.0, 1.0, np.where(d > 0.0, -hinge / d, 0.0)) / len(d)
    grad_e1 = coef[:, np.newaxis] * diff
    dws1, dbs1 = backprop(first, grad_e1)
    dws2, dbs2 = backprop(second, -grad_e1)
    return (loss, [a + b for a, b in zip(dws1, dws2)],
            [a + b for a, b in zip(dbs1, dbs2)])


def adam_step_oracle(targets, grads, ms, vs, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step as Algorithm 1 of Kingma & Ba (arXiv 1412.6980) writes
    it, over parallel lists of arrays, as whole-array expressions that make
    fresh temporaries; updates targets, ms and vs in place."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for target, g, m, v in zip(targets, grads, ms, vs):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        target -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def adam_reordered_step_oracle(targets, grads, ms, vs, t, lr, beta1=0.9, beta2=0.999,
                               eps=1e-8):
    """``adam_step_oracle`` with the parameter update in the order of the end
    of the paper's section 2, lr * (sqrt(c2) / c1) * m / (sqrt(v) + eps *
    sqrt(c2)), equal to Algorithm 1's in exact arithmetic; the moments are
    updated as there."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for target, g, m, v in zip(targets, grads, ms, vs):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        target -= lr * (math.sqrt(c2) / c1) * m / (np.sqrt(v) + eps * math.sqrt(c2))


def negative_pairs_oracle(clips):
    """Every cross-class (clip_a, clip_b) with clip_a < clip_b, in sorted
    order, by a double loop over the sorted clip ids."""
    label_of = {rec.clip_id: rec.class_label for rec in clips}
    ids = sorted(label_of)
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if label_of[ids[i]] != label_of[ids[j]]:
                out.append((ids[i], ids[j]))
    return out


def capped_negatives_oracle(clips, cap, seed):
    """The negatives that a cap of ``cap`` per anchor keeps: the pairs of
    ``negative_pairs_oracle`` grouped by anchor (clip_a); in ascending anchor
    order, a group of more than ``cap`` keeps the members at a seeded draw of
    ``cap`` positions without replacement, in their order."""
    rng = np.random.default_rng([seed])
    by_anchor = {}
    for a, b in negative_pairs_oracle(clips):
        by_anchor.setdefault(a, []).append((a, b))
    out = []
    for anchor in sorted(by_anchor):
        group = by_anchor[anchor]
        if len(group) > cap:
            picks = rng.choice(len(group), size=cap, replace=False)
            group = [group[i] for i in sorted(picks)]
        out.extend(group)
    return out


def frame_count_oracle(n_samples, win, hop):
    return (n_samples - win) // hop + 1


def positive_count_oracle(class_sizes):
    return sum(math.comb(n, 2) for n in class_sizes)


def negative_count_oracle(class_sizes):
    total = 0
    sizes = list(class_sizes)
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            total += sizes[i] * sizes[j]
    return total


def log_bin_assignments_oracle(n_positions, n_out):
    """Assign 1-based positions 1..n_positions to n_out log-spaced bins."""
    if n_positions < 1:
        raise ValueError("need at least one position")
    if n_positions == 1:
        return np.zeros(1, dtype=np.intp)
    frac = np.log(np.arange(1, n_positions + 1, dtype=np.float64)) / np.log(n_positions)
    return np.minimum((frac * n_out).astype(np.intp), n_out - 1)


def pool_rows_oracle(values, assign, n_out):
    """Mean-pool rows of `values` into n_out bins per `assign`.

    Bins that receive no rows copy the nearest filled bin (lower index wins
    when equidistant), so the output never contains undefined rows.
    """
    sums = np.zeros((n_out, values.shape[1]))
    counts = np.zeros(n_out)
    np.add.at(sums, assign, values)
    np.add.at(counts, assign, 1.0)
    filled = np.flatnonzero(counts > 0)
    out = np.empty_like(sums)
    out[filled] = sums[filled] / counts[filled, np.newaxis]
    for i in np.flatnonzero(counts == 0):
        k = np.searchsorted(filled, i)
        left = filled[k - 1] if k > 0 else None
        right = filled[k] if k < len(filled) else None
        if left is None:
            src = right
        elif right is None or i - left <= right - i:
            src = left
        else:
            src = right
        out[i] = out[src]
    return out


def log_quantize_oracle(spec, freq_bins, time_bins, amplitude_floor):
    """The (freq_bins, time_bins) pooled magnitudes of a spectrogram, by two
    row-pooling passes, and the flat log feature vector made from them."""
    mag = np.abs(np.asarray(spec))
    n_frames, n_bins = mag.shape
    freq_assign = np.concatenate(
        ([0], log_bin_assignments_oracle(n_bins - 1, freq_bins))
    )
    pooled = pool_rows_oracle(mag.T, freq_assign, freq_bins)
    time_assign = log_bin_assignments_oracle(n_frames, time_bins)
    pooled = pool_rows_oracle(pooled.T, time_assign, time_bins).T
    return pooled, np.log(pooled + amplitude_floor).reshape(-1)


def groups_oracle(A, axis):
    """Each group's first slice, each slice's group and each group's size for
    the equal rows (``axis`` 0) or columns (``axis`` 1) of ``A``, with the
    groups numbered in the order of their first slices: ``np.unique`` over the
    whole slices, renumbered."""
    _, first, group, counts = np.unique(A, axis=axis, return_index=True,
                                        return_inverse=True, return_counts=True)
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.size)
    return first[order], renumber[group.reshape(-1)], counts[order]


# --- Helpers that drive efp.net itself ---------------------------------------


def pair_distance(e1, e2):
    """Euclidean distance between two embeddings."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.shape != e2.shape:
        raise ValueError(f"embedding shapes differ: {e1.shape} vs {e2.shape}")
    return float(np.sqrt(np.sum(np.square(e1 - e2))))


def contrastive_loss(y, d, cfg=net.LossConfig()):
    """The package's per-pair contrastive loss for one pair at distance d."""
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    return float(net._contrastive(y, d, cfg.margin)[0])


def embed_one(params, x):
    """Eval-mode embedding of one input vector."""
    return net.forward_eval(params, np.asarray(x, dtype=np.float64)[np.newaxis, :])[0]


def pair_loss_and_grads(params, x1, x2, y, loss_cfg, dropout_rate=0.0, rng=None):
    """Loss and gradients of one pair through net.batch_loss_and_grads."""
    return net.batch_loss_and_grads(
        params,
        np.asarray(x1, dtype=np.float64)[np.newaxis, :],
        np.asarray(x2, dtype=np.float64)[np.newaxis, :],
        np.array([y]),
        loss_cfg,
        dropout_rate,
        rng,
    )


def grad_check(params, x1, x2, y, loss_cfg=net.LossConfig(), eps=1e-5, max_coords=None, seed=0):
    """Max relative error of analytic vs central-difference gradients of one
    pair; ``batch_grad_check`` of a batch of that pair alone."""
    return batch_grad_check(params, np.atleast_2d(x1), np.atleast_2d(x2), np.array([y]),
                            loss_cfg, eps, max_coords, seed)


def batch_grad_check(params, X1, X2, y, loss_cfg=net.LossConfig(), eps=1e-5, max_coords=None,
                     seed=0):
    """Max relative error of analytic vs central-difference gradients of the
    mean loss of a batch of pairs.

    Dropout is disabled. With max_coords set, that many coordinates are
    sampled (seeded) instead of sweeping every parameter; intended for
    spot-checking the full-size network.
    """
    X1 = np.asarray(X1, dtype=np.float64)
    X2 = np.asarray(X2, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _, grads = net.batch_loss_and_grads(params, X1, X2, y, loss_cfg)

    def loss_now():
        e1 = net.forward_eval(params, X1)
        e2 = net.forward_eval(params, X2)
        d = np.sqrt(np.sum(np.square(e1 - e2), axis=1))
        return float(np.mean(net._contrastive(y, d, loss_cfg.margin)[0]))

    coords = range(params.flat.size)
    if max_coords is not None and len(coords) > max_coords:
        rng = np.random.default_rng([seed])
        coords = rng.choice(len(coords), size=max_coords, replace=False)
    max_rel = 0.0
    flat = params.flat
    for i in coords:
        saved = flat[i]
        flat[i] = saved + eps
        loss_hi = loss_now()
        flat[i] = saved - eps
        loss_lo = loss_now()
        flat[i] = saved
        numeric = (loss_hi - loss_lo) / (2.0 * eps)
        analytic = grads.flat[i]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        max_rel = max(max_rel, rel)
    return max_rel


def stacked_twin_oracle(params, X1, X2, y, loss_cfg, dropout_rate, rng):
    """Mean loss and gradient of a batch of pairs as ``net.batch_loss_and_grads``
    computed them before it found the batch's distinct rows: one forward and
    one backward pass over every row of [X1; X2]."""
    n = len(X1)
    e, cache = net.forward_train(params, np.concatenate((X1, X2)), dropout_rate, rng)
    y = np.asarray(y, dtype=np.float64)
    diff = e[:n] - e[n:]
    d = np.sqrt(np.sum(np.square(diff), axis=1))
    losses, hinge = net._contrastive(y, d, loss_cfg.margin)
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_coef = np.where(d > 0.0, -hinge / d, 0.0)
    coef = np.where(y == 1.0, 1.0, neg_coef) / len(d)
    grad_e1 = coef[:, np.newaxis] * diff
    grads = net.MlpParams.from_flat(params.layer_dims, np.zeros_like(params.flat))
    net._backprop_into(params, cache, np.concatenate((grad_e1, -grad_e1)), grads)
    return float(losses.mean()), grads


def train_unfolded_oracle(train_pairs, val_pairs, cache, train_cfg, loss_cfg, layer_dims):
    """``net.train`` as it was before it folded equal input columns: every
    step updates the full-width parameters. Returns the model and history."""
    X_train = cache.rows(train_pairs.ids).astype(np.float64)
    X_val = cache.rows(val_pairs.ids).astype(np.float64)
    means, stds = net._feature_stats(X_train)
    Z_train = (X_train - means) / stds
    Z_val = (X_val - means) / stds
    tr_a, tr_b, tr_y = train_pairs.a, train_pairs.b, train_pairs.y.astype(np.float64)
    va_a, va_b, va_y = val_pairs.a, val_pairs.b, val_pairs.y.astype(np.float64)

    params = net.init_params(train_cfg.seed, layer_dims)
    optimizer = net.AdamOptimizer(params, train_cfg.learning_rate)
    n = len(train_pairs)
    history = []
    best_val = np.inf
    best_params = params.copy()
    for epoch in range(1, train_cfg.epochs + 1):
        perm = np.random.default_rng([train_cfg.seed, epoch]).permutation(n)
        dropout_rng = np.random.default_rng([train_cfg.seed, epoch, 1])
        loss_sum = 0.0
        for start in range(0, n, train_cfg.batch_size):
            idx = perm[start : start + train_cfg.batch_size]
            loss, grads = net.batch_loss_and_grads(
                params, Z_train[tr_a[idx]], Z_train[tr_b[idx]], tr_y[idx],
                loss_cfg, train_cfg.dropout, dropout_rng)
            optimizer.step(grads.flat)
            loss_sum += loss * len(idx)
        e_val = net.forward_eval(params, Z_val)
        d_val = np.sqrt(np.sum(np.square(e_val[va_a] - e_val[va_b]), axis=1))
        val_loss = float(np.mean(net._contrastive(va_y, d_val, loss_cfg.margin)[0]))
        history.append((epoch, loss_sum / n, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
    model = net.SiameseModel(params=best_params, margin=loss_cfg.margin,
                             feature_means=means, feature_stds=stds)
    return model, history
