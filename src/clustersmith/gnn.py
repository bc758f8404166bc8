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
from collections import namedtuple

import numpy as np

from . import lineformat
from .errors import ParseError, ValidationError, check_number
from .parallelism import Level, RingAllreduce, comm_time, total
from .topology import Link, LinkKind, Node, NodeKind, TopologyGraph, build_graph

KIND_ORDER = tuple(NodeKind)
FEATURE_DIM = len(KIND_ORDER) + 4
SPLIT = 0.8  # share of the samples trained on; the rest validate

FORMAT_VERSION = "clustersmith-gnn v1"


def graph_inputs(g: TopologyGraph, level: Level):
    """(A_hat, H) of one (graph, level) instance, from the graph's links.

    A_hat is the renormalized adjacency with self-loops, D^{-1/2} (A + I)
    D^{-1/2}, in node declaration order; parallel links count once.  H is
    the |V| x 14 feature matrix; a link's bandwidth counts at both its ends,
    and a participant the graph lacks sets no flag.
    """
    n = len(g.nodes)
    ends = np.array([(g.index[l.endpoint_a], g.index[l.endpoint_b])
                     for l in g.links], dtype=np.intp).reshape(-1, 2)
    a_hat = np.eye(n)
    a_hat[ends[:, 0], ends[:, 1]] = a_hat[ends[:, 1], ends[:, 0]] = 1.0
    degree = a_hat.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(degree)
    # summed per node in link order, as both endpoints of each link in turn
    incident_bw = np.bincount(ends.ravel(), np.repeat(
        [l.bandwidth for l in g.links], 2), n)
    h = np.zeros((n, FEATURE_DIM))
    h[np.arange(n), [KIND_ORDER.index(node.kind) for node in g.nodes]] = 1.0
    h[:, 10] = (degree - 1.0) / 4.0
    h[:, 11] = np.log10(1.0 + incident_bw) - 1.5
    h[[g.index[p] for p in set(level.participants) if p in g.index], 12] = 1.0
    h[:, 13] = np.log10(1.0 + level.payload_bytes) - 8.5
    return a_hat * np.outer(d_inv_sqrt, d_inv_sqrt), h


class GnnModel:
    """Per-layer weight matrices and bias vectors, then the hidden ->
    scalar head; mutable, since `train` updates it in place."""

    def __init__(self, weights, biases, head_w, head_b, label_mu=0.0,
                 label_sigma=1.0):
        self.weights, self.biases = weights, biases
        self.head_w, self.head_b = head_w, head_b
        self.label_mu, self.label_sigma = label_mu, label_sigma

    @property
    def dims(self):
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)


def init_model(seed: int) -> GnnModel:
    """Seeded Glorot-uniform initialization, FEATURE_DIM -> 16 -> 16.

    W0, W1 and head_w are drawn in turn, in C order, from one stream:
    numpy's `default_rng(seed).uniform`, reproduced without `numpy.random`
    (see `_doubles`).  A negative seed raises ValidationError.
    """
    doubles = _doubles(seed)
    dims = (FEATURE_DIM, 16, 16)

    def glorot(fan_in, fan_out):
        r = math.sqrt(6.0 / (fan_in + fan_out))
        # numpy's uniform(-r, r): low + (high - low) * u
        return np.array([-r + (r + r) * next(doubles)
                         for _ in range(fan_in * fan_out)]).reshape(fan_in, fan_out)

    weights = [glorot(fan_in, fan_out) for fan_in, fan_out in zip(dims, dims[1:])]
    return GnnModel(weights=weights, biases=[np.zeros(d) for d in dims[1:]],
                    head_w=glorot(dims[-1], 1).ravel(), head_b=0.0)


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _check_seed(seed: int) -> None:
    """A seed is any integer >= 0, however large, as numpy's SeedSequence
    takes it; check_number alone would refuse one too large for a float."""
    if seed < 0:
        check_number("seed", seed)


def _hashmix(const, mult):
    """SeedSequence's hashmix, each call with the next constant of its chain."""
    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _doubles(seed: int):
    """The doubles in [0, 1) of numpy's `default_rng(seed)`, bit for bit.

    SeedSequence mixes the seed's little-endian 32-bit words into a pool of
    four and expands it to four 64-bit words; PCG64 (XSL-RR 128/64,
    O'Neill 2014) is seeded with state w0:w1 and stream w2:w3, and each
    output's top 53 bits make a double.
    """
    _check_seed(seed)
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return x ^ x >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
    w = [hashmix(pool[i % 4]) for i in range(8)]
    w = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * mult + inc) & _M128
    while True:
        state = (state * mult + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        yield (x >> 11) * 2.0**-53


def forward(model: GnnModel, a_hat: np.ndarray, h: np.ndarray) -> float:
    """Scalar prediction in normalized log space."""
    return float(_forward(model, GraphBatch([(a_hat, h)]))[0][0])


class GraphBatch:
    """Graphs packed into shared blocks, for one pass over all of them.

    Graphs are placed first-fit decreasing by node count into blocks N rows
    wide, N the largest graph's node count.  Graph k, in the order given,
    holds rows `starts[k]` to `starts[k] + sizes[k]`, inside one block;
    `row_graph` names each row's graph, and is len(sizes) on padding rows.
    `a_hat` is (blocks, N, N), block-diagonal within a block, and node rows
    are stacked as (blocks * N, F) matrices, so each layer's weight product
    is one matrix product and `ones @ rows` sums them.  A padding row's
    zero adjacency column keeps it out of every real node's aggregation,
    and the pool sums only a graph's own rows, so padding changes no
    prediction or gradient.  Each row's head product is taken on its own
    and summed in row order, so a graph's prediction is bit for bit its own
    B = 1 `forward`, wherever it sits.  `ah` is A_hat H, the first layer's
    input, fixed while the weights train.  Each A_hat must be symmetric, as
    `graph_inputs` makes it: the backward pass aggregates with it.
    """

    def __init__(self, pairs):
        pairs = list(pairs)
        if not pairs:
            raise ValidationError("a batch needs at least one graph")
        dim = pairs[0][1].shape[-1]
        for a_hat, h in pairs:
            if h.ndim != 2 or a_hat.shape != (len(h), len(h)):
                raise ValidationError("adjacency/features row mismatch")
            if not len(h):
                raise ValidationError("a graph needs at least one node")
            if not np.array_equal(a_hat, a_hat.T):
                raise ValidationError("a_hat must be symmetric")
            if h.shape[1] != dim:
                raise ValidationError("graphs in a batch must share a "
                                      "feature dimension")
        sizes = [len(h) for _, h in pairs]
        n = max(sizes)
        # first fit decreasing: each graph, largest first, into the first
        # block with room for it
        starts, used = [0] * len(pairs), []
        for k in sorted(range(len(pairs)), key=lambda k: -sizes[k]):
            block = next((b for b, u in enumerate(used) if u + sizes[k] <= n),
                         len(used))
            if block == len(used):
                used.append(0)
            starts[k] = block * n + used[block]
            used[block] += sizes[k]
        self.starts, self.sizes = starts, np.array(sizes)
        self.a_hat = np.zeros((len(used), n, n))
        self.ah = np.zeros((len(used) * n, dim))
        self.row_graph = np.full(len(self.ah), len(pairs))
        for k, (a_hat, h) in enumerate(pairs):
            start, stop = starts[k], starts[k] + len(h)
            block, at = divmod(start, n)
            self.a_hat[block, at:at + len(h), at:at + len(h)] = a_hat
            self.ah[start:stop] = a_hat @ h
            self.row_graph[start:stop] = k
        self.ones = np.ones(len(self.ah))
        self._buffers = {}

    def _aggregate(self, x: np.ndarray, key) -> np.ndarray:
        """A_hat x for each block, with x as stacked (blocks * N, F) rows."""
        out = self._buffer(key, x.shape)
        shape = (len(self.a_hat), -1, x.shape[1])
        np.matmul(self.a_hat, x.reshape(shape), out=out.reshape(shape))
        return out

    def _buffer(self, key, shape) -> np.ndarray:
        """Scratch array reused by every pass over this batch."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = self._buffers[key] = np.empty(shape)
        return buf


def _forward(model: GnnModel, batch: GraphBatch):
    """Predictions, one per graph, and per layer (s, x) with s = A_hat x_in
    and x = relu(s W + b) the layer's output, both as stacked rows."""
    if batch.ah.shape[1] != model.weights[0].shape[0]:
        raise ValidationError(f"feature dim {batch.ah.shape[1]} != model "
                              f"input dim {model.weights[0].shape[0]}")
    s, layers = batch.ah, []
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        if k:
            s = batch._aggregate(x, ("s", k))
        x = np.matmul(s, w, out=batch._buffer(("x", k), (len(s), w.shape[1])))
        x += b
        np.maximum(x, 0.0, out=x)
        layers.append((s, x))
    # each row's head product on its own, summed in row order over its
    # graph's rows: a matrix-vector product would round a row by its place
    head = np.einsum("rf,f->r", x, model.head_w)
    sums = np.bincount(batch.row_graph, head, len(batch.sizes) + 1)[:-1]
    return sums / batch.sizes + model.head_b, layers


Gradients = namedtuple("Gradients", "weights biases head_w head_b loss")


def gradients(model: GnnModel, a_hat: np.ndarray, h: np.ndarray,
              target: float) -> Gradients:
    """Exact reverse-mode gradients of (prediction - target)^2."""
    return batch_gradients(model, GraphBatch([(a_hat, h)]), [target])


def batch_gradients(model: GnnModel, batch: GraphBatch,
                    targets) -> Gradients:
    """Exact reverse-mode gradients of the summed squared error
    sum_k (prediction_k - target_k)^2 over the batch."""
    pred, layers = _forward(model, batch)
    err = pred - np.asarray(targets, dtype=float)
    d_pred = 2.0 * err
    # d loss / d (a row's head product): its graph's d_pred / |V|, 0 on padding
    coef = np.append(d_pred / batch.sizes, 0.0)[batch.row_graph]
    x_last = layers[-1][1]
    g_head_w = coef @ x_last
    # the outer product coef x head_w: einsum is twice as fast as broadcasting
    d_x = np.einsum("r,f->rf", coef, model.head_w,
                    out=batch._buffer("dx", x_last.shape))
    g_w, g_b = [], []
    for k in reversed(range(len(model.weights))):
        s, x = layers[k]
        # relu's derivative as a float mask, made in x's buffer, which
        # nothing reads again: no bool-to-float cast per pass
        mask = np.greater(x, 0.0, out=x)
        np.multiply(d_x, mask, out=d_x)         # now d loss / d (s W + b)
        g_w.append(s.T @ d_x)
        g_b.append(batch.ones @ d_x)
        if k:
            # a contiguous W.T multiplies three times as fast as the view
            d_s = np.matmul(d_x, model.weights[k].T.copy(),
                            out=batch._buffer("ds", s.shape))
            d_x = batch._aggregate(d_s, "dx")  # A_hat is symmetric
    return Gradients(weights=g_w[::-1], biases=g_b[::-1], head_w=g_head_w,
                     head_b=float(d_pred.sum()), loss=float(err @ err))


def predict_seconds(model: GnnModel, g: TopologyGraph,
                    level: Level) -> float:
    """Seconds, or inf or 0.0 where they leave the float range."""
    z = forward(model, *graph_inputs(g, level))
    with np.errstate(over="ignore"):  # the caller checks the result
        return float(np.exp(z * model.label_sigma + model.label_mu))


# ---------------------------------------------------------------------------
# Dataset generation


Sample = namedtuple("Sample", "graph level label_seconds")


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
    level = RingAllreduce(name="ring", participants=tuple(
        f"gpu{i}" for i in range(n_gpu)), payload_bytes=payload)
    return g, level


def generate_dataset(seed: int, count: int) -> list:
    """Seeded random (graph, level, analytic label) triples."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        g, level = _random_instance(rng)
        samples.append(Sample(graph=g, level=level,
                              label_seconds=total(comm_time(level, g), level.name)))
    return samples


# ---------------------------------------------------------------------------
# Training


class TrainConfig(namedtuple("TrainConfig", "learning_rate epochs seed")):
    """Checked in `__new__`; `_make` and `_replace` skip the check, so
    nothing calls them."""

    __slots__ = ()

    # 1e-2 underfits badly within the default epoch budget; 5e-2 converges
    # stably across seeds
    def __new__(cls, learning_rate=5e-2, epochs=500, seed=0):
        check_number("learning_rate", learning_rate)
        check_number("epochs", epochs)
        _check_seed(seed)
        return tuple.__new__(cls, (learning_rate, epochs, seed))


def train_count(count: int) -> int:
    """How many of `count` samples `train` trains on: a share SPLIT of
    them, at least one; the rest are held out to validate."""
    return max(1, int(round(SPLIT * count)))


def train(model: GnnModel, samples, cfg: TrainConfig = TrainConfig()):
    """Full-batch gradient descent on standardized log labels.

    Each epoch is one batched forward and backward pass over every
    training graph.  Returns (model, per-epoch training loss list,
    validation indices).  The split is seeded by cfg.seed; the model is
    mutated in place and also returned.
    """
    if not samples:
        raise ValidationError("training needs at least one sample")
    order = list(range(len(samples)))
    random.Random(cfg.seed).shuffle(order)
    n_train = train_count(len(order))
    train_idx = order[:n_train]
    val_idx = order[n_train:]

    batch = GraphBatch(graph_inputs(samples[i].graph, samples[i].level)
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
        raise ValidationError("validation needs at least one held-out sample")
    batch = GraphBatch(graph_inputs(samples[i].graph, samples[i].level)
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
    field, at its line, or at the line after the file's last for a field
    that is missing.
    """
    lines = lineformat.records(text)
    header = next(lines, None)
    if header is None:  # an empty file: at its first line
        raise ParseError("unrecognized model format header", 1, 1)
    if header.tokens != FORMAT_VERSION.split():
        raise header.error("unrecognized model format header")
    fields = {}
    for line in lines:
        key = line.tokens[0]
        if key in fields:
            raise line.error(f"repeated field {key!r}")
        fields[key] = line

    def values(key, size=None, positive=False):
        if key not in fields:
            raise ParseError(f"missing field {key!r}",
                             lineformat.line_after(text), 1)
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
    if dims[0] != FEATURE_DIM:
        raise dims_line.error(f"dims: input size {dims[0]} is not the "
                              f"feature dimension {FEATURE_DIM}", 1)
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
