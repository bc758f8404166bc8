import copy
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersmith import gnn
from clustersmith.errors import ParseError, ValidationError
from clustersmith.gnn import (
    FEATURE_DIM,
    GnnModel,
    GraphBatch,
    TrainConfig,
    batch_gradients,
    forward,
    generate_dataset,
    gradients,
    graph_inputs,
    init_model,
    load_model,
    predict_seconds,
    save_model,
    train,
    validation_mape,
)
from clustersmith.parallelism import RingAllreduce, comm_time
from clustersmith.topology import (
    Link,
    LinkKind,
    Node,
    NodeKind,
    build_graph,
    load_topology,
)

from conftest import (
    REWRITES,
    dense_normalized_adjacency,
    dual_socket_text,
    link_adjacency,
    loop_node_features,
)

DATA = Path(__file__).parent / "data"


def _a_hat(n, pairs):
    """`graph_inputs`' A_hat of GPUs g0..g<n-1> linked at index `pairs`."""
    nodes = [Node(f"g{i}", NodeKind.GPU) for i in range(n)]
    links = [Link(f"g{i}", f"g{j}", LinkKind.NVLINK, 10.0) for i, j in pairs]
    return graph_inputs(build_graph(nodes, links),
                        RingAllreduce("l", (), 1e9))[0]


def test_normalized_adjacency_isolated_node():
    assert _a_hat(1, []).tolist() == [[1.0]]


def test_normalized_adjacency_single_edge():
    assert _a_hat(2, [(0, 1)]) == pytest.approx(np.full((2, 2), 0.5))
    # a parallel link, either way round, counts once
    assert np.array_equal(_a_hat(2, [(0, 1), (1, 0), (0, 1)]),
                          _a_hat(2, [(0, 1)]))


def test_normalized_adjacency_path_graph_oracle():
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    # independent dense evaluation
    ai = a + np.eye(3)
    d = np.diag(1.0 / np.sqrt(ai.sum(axis=1)))
    expected = d @ ai @ d
    assert _a_hat(3, [(0, 1), (1, 2)]) == pytest.approx(expected)


def test_normalized_adjacency_k_regular_diagonal():
    # ring of 5 nodes is 2-regular: diagonal 1/(k+1)
    norm = _a_hat(5, [(i, (i + 1) % 5) for i in range(5)])
    assert np.diag(norm) == pytest.approx(np.full(5, 1 / 3))


def _assert_inputs_equal_oracles(g, level):
    a_hat, h = graph_inputs(g, level)
    assert np.array_equal(a_hat, dense_normalized_adjacency(link_adjacency(g)))
    assert np.array_equal(h, loop_node_features(g, level))


def test_graph_inputs_equal_the_dense_and_loop_builders(nvlink4, dual_socket):
    cluster = load_topology((DATA / "plan-cluster-seed1.topo").read_text())
    # every README rewrite of the dual-socket preset at once
    rewritten = load_topology(dual_socket_text(*REWRITES))
    for g in (nvlink4, dual_socket, cluster, rewritten):
        gpus = tuple(n.id for n in g.nodes if n.kind is NodeKind.GPU)
        _assert_inputs_equal_oracles(g, RingAllreduce("r", gpus, 1e9))
        # a participant the graph lacks sets no flag
        _assert_inputs_equal_oracles(
            g, RingAllreduce("x", (g.nodes[-1].id, "absent"), 0.0))
    for sample in generate_dataset(seed=0, count=200):
        _assert_inputs_equal_oracles(sample.graph, sample.level)


@st.composite
def _graphs_and_levels(draw):
    """Up to 8 nodes, some isolated, and up to 24 links, many parallel."""
    n = draw(st.integers(1, 8))
    nodes = [Node(f"n{i}", draw(st.sampled_from(list(NodeKind))))
             for i in range(n)]
    links = [Link(f"n{i}", f"n{(i + hop) % n}", LinkKind.PCIE, bw)
             for i, hop, bw in draw(st.lists(st.tuples(
                 st.integers(0, n - 1), st.integers(1, max(1, n - 1)),
                 st.floats(1e-3, 1e3)), max_size=24 if n > 1 else 0))]
    participants = draw(st.lists(st.sampled_from(
        [node.id for node in nodes] + ["absent"]), unique=True))
    level = RingAllreduce("l", tuple(participants),
                          draw(st.floats(0.0, 1e12)))
    return build_graph(nodes, links), level


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_graphs_and_levels())
def test_graph_inputs_equal_the_oracles_on_random_graphs(graph_and_level):
    _assert_inputs_equal_oracles(*graph_and_level)


# ---------------------------------------------------------------------------
# forward / gradients


def _random_instance(seed=0):
    sample = generate_dataset(seed=seed, count=1)[0]
    return (sample, *graph_inputs(sample.graph, sample.level))


def test_forward_zero_model_predicts_zero():
    _, a_hat, h = _random_instance()
    model = init_model(seed=0)
    for w in model.weights:
        w[:] = 0
    model.head_w[:] = 0
    assert forward(model, a_hat, h) == 0.0


def test_forward_single_node_identity():
    model = GnnModel(weights=[np.eye(FEATURE_DIM)],
                     biases=[np.zeros(FEATURE_DIM)],
                     head_w=np.ones(FEATURE_DIM), head_b=0.0)
    h = np.abs(np.random.default_rng(1).normal(size=(1, FEATURE_DIM)))
    # single node: A_hat = [[1]], relu is identity on nonnegative input
    assert forward(model, np.array([[1.0]]), h) == pytest.approx(float(h.sum()))


def test_forward_dimension_mismatch():
    model = init_model(seed=0)
    with pytest.raises(ValidationError,
                       match=f"feature dim 3 != model input dim "
                       f"{FEATURE_DIM}"):
        forward(model, np.eye(2), np.zeros((2, 3)))
    with pytest.raises(ValidationError,
                       match="adjacency/features row mismatch"):
        forward(model, np.eye(3), np.zeros((2, FEATURE_DIM)))


def test_forward_permutation_invariance():
    rng = np.random.default_rng(9)
    for seed in range(5):
        _, a_hat, h = _random_instance(seed)
        model = init_model(seed=seed)
        base = forward(model, a_hat, h)
        perm = rng.permutation(h.shape[0])
        assert forward(model, a_hat[np.ix_(perm, perm)], h[perm]) == \
            pytest.approx(base, abs=1e-12)


def test_gradients_zero_at_optimum():
    _, a_hat, h = _random_instance()
    model = init_model(seed=3)
    target = forward(model, a_hat, h)
    grad = gradients(model, a_hat, h, target)
    assert grad.head_b == 0.0
    assert np.allclose(grad.head_w, 0.0)
    for gw in grad.weights:
        assert np.allclose(gw, 0.0)


def _flatten(model):
    return np.concatenate([w.ravel() for w in model.weights]
                          + [b.ravel() for b in model.biases]
                          + [model.head_w, [model.head_b]])


def _unflatten_into(model, vec):
    i = 0
    for w in model.weights:
        w[:] = vec[i:i + w.size].reshape(w.shape)
        i += w.size
    for b in model.biases:
        b[:] = vec[i:i + b.size]
        i += b.size
    model.head_w[:] = vec[i:i + model.head_w.size]
    i += model.head_w.size
    model.head_b = float(vec[i])


def test_gradients_match_central_finite_differences():
    step = 1e-5
    rng = np.random.default_rng(12)
    for seed in range(8):
        _, a_hat, h = _random_instance(seed)
        model = init_model(seed=seed + 100)
        target = forward(model, a_hat, h) + rng.normal()
        grad = gradients(model, a_hat, h, target)
        analytic = _flatten(GnnModel(
            weights=grad.weights, biases=grad.biases,
            head_w=grad.head_w, head_b=grad.head_b))
        theta = _flatten(model)
        probe = copy.deepcopy(model)
        idx = rng.choice(theta.size, size=25, replace=False)
        for j in idx:
            for sign, store in ((1, "plus"), (-1, "minus")):
                vec = theta.copy()
                vec[j] += sign * step
                _unflatten_into(probe, vec)
                val = (forward(probe, a_hat, h) - target) ** 2
                if sign == 1:
                    plus = val
                else:
                    minus = val
            numeric = (plus - minus) / (2 * step)
            scale = max(abs(numeric), abs(analytic[j]), 1e-8)
            assert abs(numeric - analytic[j]) / scale < 1e-4


def test_head_bias_gradient_with_zero_features():
    model = init_model(seed=4)
    a_hat = np.array([[1.0]])
    h = np.zeros((1, FEATURE_DIM))
    target = -1.5
    pred = forward(model, a_hat, h)
    grad = gradients(model, a_hat, h, target)
    assert grad.head_b == pytest.approx(2 * (pred - target))


# ---------------------------------------------------------------------------
# batched passes


def _reference_gradients(model, a_hat, h, target):
    """Per-sample reverse mode on one unpadded graph, written apart from
    the batched code: (weights, biases, head_w, head_b, loss)."""
    xs, pre, x = [h], [], h
    for w, b in zip(model.weights, model.biases):
        pre.append(a_hat @ x @ w + b)
        x = np.maximum(pre[-1], 0.0)
        xs.append(x)
    pooled = x.mean(axis=0)
    err = float(pooled @ model.head_w + model.head_b) - target
    d_x = np.tile(2.0 * err * model.head_w / len(x), (len(x), 1))
    g_w, g_b = [], []
    for layer in reversed(range(len(model.weights))):
        d_p = d_x * (pre[layer] > 0)
        g_w.append((a_hat @ xs[layer]).T @ d_p)
        g_b.append(d_p.sum(axis=0))
        d_x = a_hat.T @ (d_p @ model.weights[layer].T)
    return g_w[::-1], g_b[::-1], 2.0 * err * pooled, 2.0 * err, err * err


def _mixed_batch(seed, count=9):
    """(a_hat, h) pairs of graphs with different node counts, and targets."""
    samples = generate_dataset(seed=seed, count=count)
    pairs = [graph_inputs(s.graph, s.level) for s in samples]
    assert len({len(h) for _, h in pairs}) > 2
    targets = np.random.default_rng(seed).normal(size=count)
    return pairs, targets


def _biased_model(seed):
    """init_model with positive biases, so a padded node's relu(b) is
    nonzero and would show in any output that read it."""
    model = init_model(seed=seed)
    rng = np.random.default_rng(seed)
    for b in model.biases:
        b[:] = rng.uniform(0.05, 0.5, size=b.shape)
    return model


def _grad_vector(g):
    return np.concatenate([w.ravel() for w in g.weights]
                          + [b.ravel() for b in g.biases]
                          + [g.head_w, [g.head_b]])


def test_batched_gradients_equal_sum_of_single_gradients():
    for seed in range(4):
        pairs, targets = _mixed_batch(seed)
        model = _biased_model(seed + 20)
        batched = batch_gradients(model, GraphBatch(pairs), targets)
        singles = [gradients(model, a, h, t) for (a, h), t in zip(pairs, targets)]
        refs = [_reference_gradients(model, a, h, t)
                for (a, h), t in zip(pairs, targets)]
        total = sum(_grad_vector(g) for g in singles)
        assert np.allclose(_grad_vector(batched), total, rtol=0, atol=1e-12)
        assert batched.loss == pytest.approx(sum(g.loss for g in singles),
                                             rel=1e-12)
        for single, (g_w, g_b, g_hw, g_hb, loss) in zip(singles, refs):
            want = np.concatenate([w.ravel() for w in g_w]
                                  + [b.ravel() for b in g_b] + [g_hw, [g_hb]])
            assert np.allclose(_grad_vector(single), want, rtol=0, atol=1e-12)
            assert single.loss == pytest.approx(loss, rel=1e-12)


def test_batched_mean_loss_matches_central_finite_differences():
    step = 1e-5
    rng = np.random.default_rng(31)
    for seed in range(3):
        pairs, targets = _mixed_batch(seed + 40, count=6)
        model = _biased_model(seed)
        analytic = _grad_vector(
            batch_gradients(model, GraphBatch(pairs), targets)) / len(pairs)
        theta = _flatten(model)
        probe = copy.deepcopy(model)

        def mean_loss(vec):
            _unflatten_into(probe, vec)
            return np.mean([(forward(probe, a, h) - t) ** 2
                            for (a, h), t in zip(pairs, targets)])

        for j in rng.choice(theta.size, size=25, replace=False):
            plus, minus = theta.copy(), theta.copy()
            plus[j] += step
            minus[j] -= step
            numeric = (mean_loss(plus) - mean_loss(minus)) / (2 * step)
            scale = max(abs(numeric), abs(analytic[j]), 1e-8)
            assert abs(numeric - analytic[j]) / scale < 1e-4


def test_padding_size_changes_nothing():
    pairs, targets = _mixed_batch(5)
    model = _biased_model(5)
    ring = np.roll(np.eye(20), 1, axis=1)
    big = (dense_normalized_adjacency(ring + ring.T),
           np.random.default_rng(5).uniform(size=(20, gnn.FEATURE_DIM)))
    runs, widths = [], []
    # the same batch with one more graph: a copy of the first, or a 20-node
    # ring that widens every block to 20 rows and so repacks every graph
    for extra in (pairs[0], big):
        batch = GraphBatch(pairs + [extra])
        widths.append(batch.a_hat.shape[1])
        grad = batch_gradients(model, batch, [*targets, 0.0])
        # batch gradients sum over graphs, so take the extra graph's away
        runs.append((gnn._forward(model, batch)[0][:-1],
                     _grad_vector(grad)
                     - _grad_vector(gradients(model, *extra, 0.0))))
    assert widths[0] < widths[1] == 20
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.allclose(runs[0][1], runs[1][1], rtol=0, atol=1e-12)
    assert np.array_equal(runs[0][0], [forward(model, a, h) for a, h in pairs])


def test_graph_batch_packs_each_graph_into_one_block():
    rng = random.Random(3)
    pairs, _ = _mixed_batch(7, count=40)
    for size in (1, 2, 9, 40):
        chosen = rng.sample(pairs, size)
        batch = GraphBatch(chosen)
        blocks, width = batch.a_hat.shape[:2]
        assert width == max(len(h) for _, h in chosen)
        assert len(batch.ah) == blocks * width
        taken = np.full(len(batch.ah), -1)
        for k, (a_hat, h) in enumerate(chosen):
            start, size_k = batch.starts[k], batch.sizes[k]
            assert size_k == len(h)
            # one contiguous run of rows, inside one block, used by no other
            block, at = divmod(start, width)
            assert at + size_k <= width
            assert (taken[start:start + size_k] == -1).all()
            taken[start:start + size_k] = k
            run = slice(at, at + size_k)
            assert np.array_equal(batch.a_hat[block][run, run], a_hat)
            assert np.array_equal(batch.ah[start:start + size_k], a_hat @ h)
        assert np.array_equal(batch.row_graph,
                              np.where(taken < 0, len(chosen), taken))
        # nothing else in A_hat: it links no two graphs, and no padding row
        assert np.count_nonzero(batch.a_hat) == \
            sum(np.count_nonzero(a_hat) for a_hat, _ in chosen)


def test_default_training_graphs_pack_with_little_padding(monkeypatch):
    batches = []
    real = gnn.batch_gradients

    def keep(model, batch, targets):
        batches.append(batch)
        return real(model, batch, targets)

    monkeypatch.setattr(gnn, "batch_gradients", keep)
    train(init_model(seed=0), generate_dataset(seed=0, count=200),
          TrainConfig(epochs=1))
    batch, = batches
    assert len(batch.sizes) == 160 and batch.sizes.sum() == 1126
    # at most 10% padding, against 160 * 12 = 1,920 rows with a block per graph
    assert len(batch.ah) <= 1248


def test_graph_batch_rejects_bad_stacks():
    pairs, _ = _mixed_batch(1)
    with pytest.raises(ValidationError,
                       match="a batch needs at least one graph"):
        GraphBatch([])
    with pytest.raises(ValidationError, match="graphs in a batch must share "
                       "a feature dimension"):
        GraphBatch(pairs + [(np.eye(2), np.zeros((2, 3)))])
    with pytest.raises(ValidationError,
                       match="a graph needs at least one node"):
        GraphBatch(pairs + [(np.zeros((0, 0)), np.zeros((0, FEATURE_DIM)))])
    with pytest.raises(ValidationError, match="a_hat must be symmetric"):
        GraphBatch(pairs + [(np.array([[1.0, 0.5], [0.0, 1.0]]),
                             np.zeros((2, FEATURE_DIM)))])


def test_train_runs_one_batched_pass_per_epoch(monkeypatch):
    samples = generate_dataset(seed=4, count=20)
    passes = []
    real = gnn.batch_gradients

    def counting(model, batch, targets):
        passes.append(len(batch.sizes))
        return real(model, batch, targets)

    def per_sample(*args):
        raise AssertionError("train must not take per-sample gradients")

    monkeypatch.setattr(gnn, "batch_gradients", counting)
    monkeypatch.setattr(gnn, "gradients", per_sample)
    _, history, val_idx = train(init_model(seed=4), samples,
                                TrainConfig(seed=4, epochs=7))
    assert passes == [len(samples) - len(val_idx)] * 7 == [16] * 7
    assert len(history) == 7


# ---------------------------------------------------------------------------
# dataset


def test_dataset_deterministic():
    a = generate_dataset(seed=5, count=10)
    b = generate_dataset(seed=5, count=10)
    assert len(a) == len(b) == 10
    for x, y in zip(a, b):
        assert x.graph == y.graph
        assert x.level == y.level
        assert x.label_seconds == y.label_seconds


def test_dataset_single_sample():
    assert len(generate_dataset(seed=1, count=1)) == 1
    with pytest.raises(ValidationError, match="count must be >= 1"):
        generate_dataset(seed=1, count=0)


def test_dataset_labels_match_analytic_reevaluation():
    for s in generate_dataset(seed=8, count=20):
        # the correctly rounded sum of the level's per-phase row
        row = [t for t, count in comm_time(s.level, s.graph)
               for _ in range(count)]
        assert s.label_seconds == math.fsum(row)


# ---------------------------------------------------------------------------
# training


def test_zero_learning_rate_keeps_weights():
    samples = generate_dataset(seed=2, count=20)
    model = init_model(seed=2)
    before = _flatten(model).copy()
    mu, sigma = model.label_mu, model.label_sigma
    model, _, _ = train(model, samples,
                        TrainConfig(learning_rate=0.0, epochs=5, seed=2))
    after = _flatten(model)
    assert np.array_equal(before, after)


def test_training_deterministic():
    samples = generate_dataset(seed=6, count=30)
    runs = []
    for _ in range(2):
        model = init_model(seed=6)
        model, history, _ = train(model, samples,
                                  TrainConfig(seed=6, epochs=40))
        runs.append((save_model(model), tuple(history)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kwargs", [
    {"learning_rate": -1.0}, {"learning_rate": float("nan")},
    {"learning_rate": float("inf")}, {"epochs": -3},
])
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(ValidationError):
        TrainConfig(**kwargs)


def test_training_divergence_is_an_error():
    samples = generate_dataset(seed=2, count=20)
    with pytest.raises(ValidationError, match="diverged"):
        train(init_model(seed=2), samples,
              TrainConfig(learning_rate=1e6, epochs=50, seed=2))


def test_validation_mape_needs_held_out_samples():
    samples = generate_dataset(seed=2, count=2)
    model, _, val_idx = train(init_model(seed=2), samples,
                              TrainConfig(epochs=3, seed=2))
    assert val_idx == []
    with pytest.raises(ValidationError, match="validation needs at least "
                       "one held-out sample"):
        validation_mape(model, samples, val_idx)


def test_validation_mape_matches_per_sample_predictions():
    samples = generate_dataset(seed=9, count=30)
    model, _, val_idx = train(init_model(seed=9), samples,
                              TrainConfig(epochs=20, seed=9))
    errs = [abs(predict_seconds(model, samples[i].graph, samples[i].level)
                - samples[i].label_seconds) / samples[i].label_seconds
            for i in val_idx]
    assert validation_mape(model, samples, val_idx) == np.mean(errs)


def test_training_empty_dataset():
    with pytest.raises(ValidationError,
                       match="training needs at least one sample"):
        train(init_model(seed=0), [], TrainConfig())


def test_default_config_reaches_mape_gate():
    samples = generate_dataset(seed=0, count=200)
    model = init_model(seed=0)
    model, history, val_idx = train(model, samples, TrainConfig(seed=0))
    assert history[-1] < history[0]
    assert validation_mape(model, samples, val_idx) <= 0.25


def test_model_round_trip():
    samples = generate_dataset(seed=3, count=10)
    model = init_model(seed=3)
    model, _, _ = train(model, samples, TrainConfig(seed=3, epochs=10))
    text = save_model(model)
    loaded = load_model(text)
    assert save_model(loaded) == text
    s = samples[0]
    assert predict_seconds(loaded, s.graph, s.level) == \
        predict_seconds(model, s.graph, s.level)


def test_load_model_rejects_garbage():
    # a ParseError at the header's first token, or at line 1 if there is none
    for text, at in (("not a model\n", "line 1, col 1"),
                     ("# note\n  not a model\n", "line 2, col 3"),
                     ("", "line 1, col 1"),
                     ("# only a comment\n", "line 1, col 1")):
        with pytest.raises(ParseError, match=f"^{at}: unrecognized model "
                           "format header$"):
            load_model(text)


def _model_text():
    samples = generate_dataset(seed=3, count=10)
    model, _, _ = train(init_model(seed=3), samples,
                        TrainConfig(seed=3, epochs=2))
    return save_model(model)


@pytest.mark.parametrize("edit,message", [
    (lambda ls: ls[:2], "missing field 'label_mu'"),
    (lambda ls: ls[:4], "missing field 'W0'"),
    (lambda ls: ls[:5] + ls[6:], "missing field 'b0'"),
    (lambda ls: ls + ["head_b 0.0"], "line 11, col 1: repeated field 'head_b'"),
    (lambda ls: ls + ["W2 1.0"], "line 11, col 1: unknown field 'W2'"),
    (lambda ls: ls[:5] + ["b0 0.5"] + ls[6:], "line 6, col 1: b0 has 1 values, "
                                             "expected 16"),
    (lambda ls: ls[:9] + ["head_b 0.0 1.0"], "head_b has 2 values"),
    (lambda ls: ls[:3] + ["label_sigma nan"] + ls[4:],
     "line 4, col 13: label_sigma: 'nan' is not finite and > 0"),
    (lambda ls: ls[:3] + ["label_sigma 0.0"] + ls[4:], "label_sigma: '0.0'"),
    (lambda ls: ls[:2] + ["label_mu x"] + ls[3:],
     "line 3, col 10: label_mu: not a number: 'x'"),
    (lambda ls: ls[:6] + [ls[6].replace(" ", " inf ", 1)] + ls[7:],
     "line 7, col 4: W1: 'inf' is not finite"),
    (lambda ls: ["clustersmith-gnn v1", "dims 14 0 16"] + ls[2:],
     "line 2, col 9: dims: '0' is not finite and > 0"),
    (lambda ls: ["clustersmith-gnn v1", "dims 14"] + ls[2:],
     "line 2, col 1: dims needs at least two whole sizes"),
    (lambda ls: ["clustersmith-gnn v1", "dims 14 16.5 16"] + ls[2:],
     "line 2, col 1: dims needs at least two whole sizes"),
    (lambda ls: ["clustersmith-gnn v1", "dims 14 1" + "0" * 400 + " 16"]
     + ls[2:], "line 2, col 9: dims: '1000"),
])
def test_load_model_rejects_malformed_fields(edit, message):
    lines = _model_text().splitlines()
    assert len(lines) == 10
    with pytest.raises(ParseError) as exc:
        load_model("\n".join(edit(lines)) + "\n")
    assert message in str(exc.value)


def test_missing_field_is_placed_after_the_last_line():
    lines = _model_text().splitlines()
    for text, at, missing in (
            ("\n".join(lines[:2]) + "\n", 3, "label_mu"),
            ("\n".join(lines[:2]), 3, "label_mu"),
            ("\n".join(lines[:2]) + "\n\n# end\n", 5, "label_mu"),
            ("\r\n".join(lines[:4]) + "\r\n", 5, "W0")):
        with pytest.raises(ParseError, match=f"^line {at}, col 1: missing "
                           f"field '{missing}'$"):
            load_model(text)
