"""Message-passing network regressing communication time from a topology.

The analytic evaluator in `parallelism` defines ground truth; this model
learns to approximate it.  Targets are trained in log space and
standardized, since communication times span orders of magnitude.

Node features (d = 14): kind one-hot (10), degree, log10(1 + sum of
incident bandwidths), participant flag, log10(1 + payload bytes).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import lineformat
from .errors import (DimensionMismatch, EmptyDataset, NonSymmetricInput,
                     ParseError, ValidationError, check_number)
from .parallelism import ParallelLevel, Strategy, comm_time
from .topology import Link, LinkKind, Node, NodeKind, TopologyGraph, build_graph

KIND_ORDER = tuple(NodeKind)
FEATURE_DIM = len(KIND_ORDER) + 4

FORMAT_VERSION = "clustersmith-gnn v1"


def normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric renormalized adjacency with self-loops:
    D^{-1/2} (A + I) D^{-1/2}."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
        raise NonSymmetricInput("adjacency must be a symmetric square matrix")
    if np.any(np.diag(a) != 0):
        raise NonSymmetricInput("adjacency must have a zero diagonal")
    a_hat = a + np.eye(a.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def node_features(g: TopologyGraph, level: ParallelLevel) -> np.ndarray:
    """|V| x 14 feature matrix for one (graph, level) instance."""
    participants = set(level.participants)
    h = np.zeros((len(g.nodes), FEATURE_DIM))
    incident_bw = {n.id: 0.0 for n in g.nodes}
    for l in g.links:
        incident_bw[l.endpoint_a] += l.bandwidth
        incident_bw[l.endpoint_b] += l.bandwidth
    degree = g.adjacency.sum(axis=1)
    for i, node in enumerate(g.nodes):
        h[i, KIND_ORDER.index(node.kind)] = 1.0
        h[i, 10] = degree[i] / 4.0
        h[i, 11] = np.log10(1.0 + incident_bw[node.id]) - 1.5
        h[i, 12] = 1.0 if node.id in participants else 0.0
        h[i, 13] = np.log10(1.0 + level.payload_bytes) - 8.5
    return h


@dataclass
class GnnModel:
    weights: list          # per-layer weight matrices
    biases: list           # per-layer bias vectors
    head_w: np.ndarray     # hidden -> scalar
    head_b: float
    label_mu: float = 0.0
    label_sigma: float = 1.0

    @property
    def dims(self):
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)


def init_model(seed: int, in_dim: int = FEATURE_DIM, hidden: int = 16,
               layers: int = 2) -> GnnModel:
    """Seeded Glorot-uniform initialization."""
    rng = np.random.default_rng(seed)
    dims = [in_dim] + [hidden] * layers
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-r, r, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    r = np.sqrt(6.0 / (hidden + 1))
    head_w = rng.uniform(-r, r, size=hidden)
    return GnnModel(weights=weights, biases=biases, head_w=head_w, head_b=0.0)


def forward(model: GnnModel, a_hat: np.ndarray, h: np.ndarray) -> float:
    """Scalar prediction in normalized log space."""
    predictions = _forward(model, GraphBatch([(a_hat, h)]))[0]
    return float(predictions[0])


class GraphBatch:
    """Graphs zero-padded to one node count, for one pass over all of them.

    `a_hat` is (B, N, N); `pool` is (B, N) with 1/|V| on a graph's own nodes
    and 0 on padding, so pooling is a masked mean.  A padded node's zero
    adjacency column keeps it out of every real node's aggregation, and its
    zero pool weight keeps it out of the output, so padding changes no
    prediction or gradient.  Node rows are stacked as (B * N, F) matrices,
    so each layer's weight product is one matrix product, and `ones @ rows`
    sums them.  `ah` is A_hat H, the first layer's input, which stays fixed
    while the weights train.
    """

    def __init__(self, pairs):
        pairs = list(pairs)
        if not pairs:
            raise EmptyDataset("a batch needs at least one graph")
        dim = pairs[0][1].shape[-1]
        for a_hat, h in pairs:
            if h.ndim != 2 or a_hat.shape != (len(h), len(h)):
                raise DimensionMismatch("adjacency/features row mismatch")
            if h.shape[1] != dim:
                raise DimensionMismatch("graphs in a batch must share a "
                                        "feature dimension")
        n = max(len(h) for _, h in pairs)
        self.a_hat = np.zeros((len(pairs), n, n))
        ah = np.zeros((len(pairs), n, dim))
        self.pool = np.zeros((len(pairs), n))
        for k, (a_hat, h) in enumerate(pairs):
            self.a_hat[k, :len(h), :len(h)] = a_hat
            ah[k, :len(h)] = a_hat @ h
            self.pool[k, :len(h)] = 1.0 / len(h)
        self.ah = ah.reshape(-1, dim)
        self.ones = np.ones(len(self.ah))
        self._buffers = {}

    def _aggregate(self, a: np.ndarray, x: np.ndarray, key) -> np.ndarray:
        """a @ x for each graph, with x as stacked (B * N, F) rows."""
        out = self._buffer(key, x.shape)
        shape = (len(a), -1, x.shape[1])
        np.matmul(a, x.reshape(shape), out=out.reshape(shape))
        return out

    def _buffer(self, key, shape) -> np.ndarray:
        """Scratch array reused by every pass over this batch."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = self._buffers[key] = np.empty(shape)
        return buf


def _forward(model: GnnModel, batch: GraphBatch):
    """Predictions (B,), pooled features (B, F) and, per layer, (s, x)
    with s = A_hat x_in and x = relu(s W + b) the layer's output, both as
    stacked (B * N, F) rows."""
    if batch.ah.shape[1] != model.weights[0].shape[0]:
        raise DimensionMismatch(
            f"feature dim {batch.ah.shape[1]} != model input dim "
            f"{model.weights[0].shape[0]}"
        )
    s, layers = batch.ah, []
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        if k:
            s = batch._aggregate(batch.a_hat, x, ("s", k))
        x = np.matmul(s, w, out=batch._buffer(("x", k), (len(s), w.shape[1])))
        x += b
        np.maximum(x, 0.0, out=x)
        layers.append((s, x))
    pooled = np.matmul(batch.pool[:, None, :],
                       x.reshape(len(batch.pool), -1, x.shape[1]))[:, 0, :]
    return pooled @ model.head_w + model.head_b, pooled, layers


@dataclass
class Gradients:
    weights: list
    biases: list
    head_w: np.ndarray
    head_b: float
    loss: float


def gradients(model: GnnModel, a_hat: np.ndarray, h: np.ndarray,
              target: float) -> Gradients:
    """Exact reverse-mode gradients of (prediction - target)^2."""
    return batch_gradients(model, GraphBatch([(a_hat, h)]), [target])


def batch_gradients(model: GnnModel, batch: GraphBatch,
                    targets) -> Gradients:
    """Exact reverse-mode gradients of the summed squared error
    sum_k (prediction_k - target_k)^2 over the batch."""
    pred, pooled, layers = _forward(model, batch)
    err = pred - np.asarray(targets, dtype=float)
    d_pred = 2.0 * err
    # d loss / d x_last: the head weights spread over each graph's own nodes
    d_x = batch._buffer("dx", layers[-1][1].shape)
    np.multiply((d_pred[:, None] * model.head_w)[:, None, :],
                batch.pool[:, :, None],
                out=d_x.reshape(len(batch.pool), -1, d_x.shape[1]))
    a_hat_t = np.swapaxes(batch.a_hat, 1, 2)
    g_w, g_b = [], []
    for k in reversed(range(len(model.weights))):
        s, x = layers[k]
        np.multiply(d_x, x > 0, out=d_x)        # now d loss / d (s W + b)
        g_w.append(s.T @ d_x)
        g_b.append(batch.ones @ d_x)
        if k:
            d_s = np.matmul(d_x, model.weights[k].T,
                            out=batch._buffer("ds", s.shape))
            d_x = batch._aggregate(a_hat_t, d_s, "dx")
    return Gradients(weights=g_w[::-1], biases=g_b[::-1],
                     head_w=d_pred @ pooled, head_b=float(d_pred.sum()),
                     loss=float(err @ err))


def _inputs(g: TopologyGraph, level: ParallelLevel):
    return normalized_adjacency(g.adjacency), node_features(g, level)


def predict_seconds(model: GnnModel, g: TopologyGraph,
                    level: ParallelLevel) -> float:
    z = forward(model, *_inputs(g, level))
    return float(np.exp(z * model.label_sigma + model.label_mu))


# ---------------------------------------------------------------------------
# Dataset generation


@dataclass(frozen=True)
class Sample:
    graph: TopologyGraph
    level: ParallelLevel
    label_seconds: float


_EXTRA_KINDS = (NodeKind.CPU_SOCKET, NodeKind.HOST_MEMORY,
                NodeKind.PCIE_SWITCH, NodeKind.STORAGE_DEVICE)


def _random_instance(rng: random.Random):
    n_gpu = rng.randint(2, 6)
    n_extra = rng.randint(0, min(6, 12 - n_gpu))
    nodes = [Node(id=f"gpu{i}", kind=NodeKind.GPU) for i in range(n_gpu)]
    links = []
    # log-uniform per-graph base rate with per-link jitter; a shared base
    # mirrors real clusters, where one interconnect generation dominates
    base = 10.0 ** rng.uniform(0.1, 1.9)

    def bw():
        return round(min(100.0, max(1.0, base * rng.uniform(0.85, 1.15))), 3)

    # GPU ring plus random chords
    for i in range(n_gpu):
        links.append(Link(endpoint_a=f"gpu{i}", endpoint_b=f"gpu{(i + 1) % n_gpu}",
                          kind=LinkKind.NVLINK, bandwidth=bw()))
    for i in range(n_gpu):
        for j in range(i + 2, n_gpu):
            if (i, j) != (0, n_gpu - 1) and rng.random() < 0.25:
                links.append(Link(endpoint_a=f"gpu{i}", endpoint_b=f"gpu{j}",
                                  kind=LinkKind.NVLINK, bandwidth=bw()))
    for k in range(n_extra):
        kind = rng.choice(_EXTRA_KINDS)
        nid = f"aux{k}"
        nodes.append(Node(id=nid, kind=kind))
        anchor = rng.choice([n.id for n in nodes[:-1]])
        links.append(Link(endpoint_a=nid, endpoint_b=anchor,
                          kind=LinkKind.PCIE, bandwidth=bw()))
    g = build_graph(nodes, links)
    payload = 10.0 ** rng.uniform(7.0, 10.0)
    level = ParallelLevel(name="ring", strategy=Strategy.RING_ALLREDUCE,
                          participants=tuple(f"gpu{i}" for i in range(n_gpu)),
                          payload_bytes=payload)
    return g, level


def generate_dataset(seed: int, count: int) -> list:
    """Seeded random (graph, level, analytic label) triples."""
    if count < 1:
        raise EmptyDataset("count must be >= 1")
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        g, level = _random_instance(rng)
        samples.append(Sample(graph=g, level=level,
                              label_seconds=sum(comm_time(level, g))))
    return samples


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainConfig:
    # 1e-2 underfits badly within the default epoch budget; 5e-2 converges
    # stably across seeds
    learning_rate: float = 5e-2
    epochs: int = 500
    seed: int = 0
    split: float = 0.8

    def __post_init__(self):
        check_number("learning_rate", self.learning_rate)
        check_number("epochs", self.epochs)
        if not 0.0 < self.split < 1.0:
            raise ValidationError("split must lie in (0, 1)")


def train(model: GnnModel, samples, cfg: TrainConfig = TrainConfig()):
    """Full-batch gradient descent on standardized log labels.

    Each epoch is one batched forward and backward pass over every
    training graph.  Returns (model, per-epoch training loss list,
    validation indices).  The split is seeded by cfg.seed; the model is
    mutated in place and also returned.
    """
    if not samples:
        raise EmptyDataset("training needs at least one sample")
    order = list(range(len(samples)))
    random.Random(cfg.seed).shuffle(order)
    n_train = max(1, int(round(cfg.split * len(order))))
    train_idx = order[:n_train]
    val_idx = order[n_train:]

    batch = GraphBatch(_inputs(samples[i].graph, samples[i].level)
                       for i in train_idx)
    zs = np.array([np.log(samples[i].label_seconds) for i in train_idx])
    model.label_mu = float(zs.mean())
    model.label_sigma = float(zs.std()) or 1.0
    targets = (zs - model.label_mu) / model.label_sigma

    history = []
    k = len(train_idx)
    lr = cfg.learning_rate
    # a learning rate too large for the data overflows; that is reported
    # below as divergence rather than as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            grad = batch_gradients(model, batch, targets)
            if not math.isfinite(grad.loss):
                break
            for w, gw in zip(model.weights, grad.weights):
                w -= lr * gw / k
            for b, gb in zip(model.biases, grad.biases):
                b -= lr * gb / k
            model.head_w -= lr * grad.head_w / k
            model.head_b = float(model.head_b - lr * grad.head_b / k)
            history.append(grad.loss / k)
    params = (*model.weights, *model.biases, model.head_w, model.head_b)
    if len(history) < cfg.epochs or not all(np.isfinite(p).all()
                                            for p in params):
        raise ValidationError(
            f"training diverged after {len(history)} epochs at learning "
            f"rate {lr!r}: the loss or the weights are no longer finite")
    return model, history, val_idx


def validation_mape(model: GnnModel, samples, val_idx) -> float:
    """Mean absolute percentage error in the seconds domain."""
    if not val_idx:
        raise EmptyDataset("validation needs at least one held-out sample")
    batch = GraphBatch(_inputs(samples[i].graph, samples[i].level)
                       for i in val_idx)
    z = _forward(model, batch)[0]
    labels = np.array([samples[i].label_seconds for i in val_idx])
    pred = np.exp(z * model.label_sigma + model.label_mu)
    return float(np.mean(np.abs(pred - labels) / labels))


# ---------------------------------------------------------------------------
# Persistence


def _fmt_array(a: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in np.asarray(a).ravel())


def save_model(model: GnnModel) -> str:
    lines = [FORMAT_VERSION,
             "dims " + " ".join(str(d) for d in model.dims),
             f"label_mu {model.label_mu!r}",
             f"label_sigma {model.label_sigma!r}"]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"W{i} {_fmt_array(w)}")
        lines.append(f"b{i} {_fmt_array(b)}")
    lines.append(f"head_w {_fmt_array(model.head_w)}")
    lines.append(f"head_b {float(model.head_b)!r}")
    return "\n".join(lines) + "\n"


def load_model(text: str) -> GnnModel:
    """Parse a model file written by `save_model`, in the line format of
    `clustersmith.lineformat`: one field per line, its name then its values.

    A missing, repeated or unknown field, a value that is not a finite
    number, and a field of the wrong length raise ParseError naming the
    field and its line.
    """
    lines = lineformat.records(text)
    header = next(lines, None)
    if header is None or header.tokens != FORMAT_VERSION.split():
        raise DimensionMismatch("unrecognized model format header")
    fields = {}
    for line in lines:
        key = line.tokens[0]
        if key in fields:
            raise line.error(f"repeated field {key!r}")
        fields[key] = line

    def values(key, size=None, positive=False):
        if key not in fields:
            raise ParseError(f"missing field {key!r}")
        line = fields.pop(key)
        try:
            out = list(map(float, line.tokens[1:]))
        except ValueError:
            out = None
        if (out is None or not all(map(math.isfinite, out))
                or (positive and min(out, default=1.0) <= 0)):
            for i, token in enumerate(line.tokens[1:], start=1):
                try:
                    value = float(token)
                except ValueError:
                    raise line.error(f"{key}: not a number: {token!r}",
                                     i) from None
                if not math.isfinite(value) or (positive and value <= 0):
                    raise line.error(f"{key}: {token!r} is not finite"
                                     + (" and > 0" if positive else ""), i)
        if size is not None and len(out) != size:
            raise line.error(f"{key} has {len(out)} values, expected {size}")
        return out

    dims_line = fields.get("dims")
    dims = values("dims", positive=True)
    if len(dims) < 2 or any(d != int(d) for d in dims):
        raise dims_line.error("dims needs at least two whole sizes")
    dims = [int(d) for d in dims]
    label_mu, = values("label_mu", 1)
    label_sigma, = values("label_sigma", 1, positive=True)
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        w = values(f"W{i}", fan_in * fan_out)
        weights.append(np.array(w).reshape(fan_in, fan_out))
        biases.append(np.array(values(f"b{i}", fan_out)))
    head_w = np.array(values("head_w", dims[-1]))
    head_b, = values("head_b", 1)
    for key, line in fields.items():
        raise line.error(f"unknown field {key!r}")
    return GnnModel(weights=weights, biases=biases, head_w=head_w,
                    head_b=head_b, label_mu=label_mu, label_sigma=label_sigma)
