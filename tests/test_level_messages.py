"""Every level message, pinned: each level line of four levels files is
broken in a fixed, seeded set of single-fault ways, and a SHA-256 over
`plan`'s exit code and stderr for each is compared with a recorded one.
The faults span every kind of level error: the line format, a key the
level's strategy does not read, a rule of its level record, an unknown node, a
server of the wrong kind, a pair with no route, and a time that is not
finite.  Any change of a message, a line or a column shows.  `gnn
predict`, with and without `--compare`, rejects each faulty level with
`plan`'s message."""

import contextlib
import hashlib
import io
import random
import tempfile
from importlib import resources
from pathlib import Path

from clustersmith import gnn
from clustersmith.cli import main
from clustersmith.topology import load_topology

from conftest import run, write

DATA = Path(__file__).parent / "data"
PRESETS = resources.files("clustersmith.presets")
NUMERIC = ("payload", "window", "pkt", "rtt", "microbatches", "activation")
STRATEGIES = ("ring_allreduce", "parameter_server", "in_network_aggregation",
              "pipeline_p2p")

# c and m are declared but joined to nothing
SPLIT = """\
node a kind=Gpu
node b kind=Gpu
node c kind=Gpu
node n kind=CpuSocket
node m kind=Nic
node s kind=NetworkSwitch
link a b kind=NvLink bw=40
link a n kind=Pcie bw=16
link b s kind=Ethernet bw=12.5
"""
SPLIT_LEVELS = """\
level ab strategy=ring_allreduce participants=a,b payload=1e9
level ps strategy=parameter_server server=n participants=a,b payload=1e8
level ina strategy=in_network_aggregation server=s participants=a,b payload=1e8 window=8
level pipe strategy=pipeline_p2p participants=a,b payload=0 microbatches=4 activation=1e7
"""
# finite links on which a large level's time overflows
SLOW = """\
node a kind=Gpu
node b kind=Gpu
node c kind=Gpu
link a b kind=NvLink bw=1e-300
link b c kind=NvLink bw=1e-300
"""
SLOW_LEVELS = """\
level r strategy=ring_allreduce participants=a,b,c payload=1
level p strategy=pipeline_p2p participants=a,b,c payload=0 activation=1 microbatches=2
"""
DUAL_SOCKET_LEVELS = """\
# one level of each strategy, and a second ring
level r4 strategy=ring_allreduce participants=gpu0,gpu1,gpu2,gpu3 payload=10e9
level r2 strategy=ring_allreduce participants=gpu0,gpu1 payload=10e9
level ps strategy=parameter_server participants=gpu0,gpu1,gpu2,gpu3 server=nic0 payload=1e9
level ina strategy=in_network_aggregation participants=gpu0,gpu1 server=net0 payload=1e8 window=64
level pipe strategy=pipeline_p2p participants=gpu0,gpu1,gpu2 payload=0 microbatches=4 activation=1e8
"""
SOURCES = (
    ("cluster", (DATA / "plan-cluster-seed1.topo").read_text(),
     (DATA / "plan-cluster-seed1.levels").read_text()),
    ("dual-socket", PRESETS.joinpath("dual-socket-pcie-switch.topo")
     .read_text(), DUAL_SOCKET_LEVELS),
    ("split", SPLIT, SPLIT_LEVELS),
    ("slow", SLOW, SLOW_LEVELS),
)


def value(tokens, key):
    return next((t.partition("=")[2] for t in tokens
                 if t.startswith(key + "=")), None)


def set_key(tokens, key, val):
    """`tokens` with `key=val` in place of `key`'s token, or appended."""
    at = next((i for i, t in enumerate(tokens) if t.startswith(key + "=")),
              None)
    if at is None:
        return tokens + [f"{key}={val}"]
    return tokens[:at] + [f"{key}={val}"] + tokens[at + 1:]


def drop_key(tokens, key):
    return [t for t in tokens if not t.startswith(key + "=")]


def keys(tokens):
    return [i for i, t in enumerate(tokens) if "=" in t]


# Each mutation takes a level line's tokens, a seeded generator and the
# graph, and returns the broken tokens, or None where it does not apply.

def drop_token(tokens, rng, g):
    i = rng.randrange(len(tokens))
    return tokens[:i] + tokens[i + 1:]


def repeat_key(tokens, rng, g):
    return tokens + [tokens[rng.choice(keys(tokens))]]


def empty_value(tokens, rng, g):
    i = rng.choice(keys(tokens))
    return tokens[:i] + [tokens[i].partition("=")[0] + "="] + tokens[i + 1:]


def bare_token(tokens, rng, g):
    return tokens[:2] + ["x"] + tokens[2:]


def bad_head(tokens, rng, g):
    return ["levels"] + tokens[1:]


def non_number(tokens, rng, g):
    at = [i for i in keys(tokens) if tokens[i].partition("=")[0] in NUMERIC]
    i = rng.choice(at)
    return tokens[:i] + [tokens[i] + "x"] + tokens[i + 1:]


def fraction_for_integer(tokens, rng, g):
    return set_key(tokens, rng.choice(("window", "pkt", "microbatches")), "1.5")


def unknown_key(tokens, rng, g):
    return tokens + ["zz=1"]


def unknown_strategy(tokens, rng, g):
    return set_key(tokens, "strategy", "Bogus")


def other_strategy(tokens, rng, g):
    """Another strategy with the same fields: a key it does not read, no
    server where one is needed, or one of the wrong kind."""
    others = [s for s in STRATEGIES if s != value(tokens, "strategy")]
    return set_key(tokens, "strategy", rng.choice(others))


def number(key, val, name):
    def mutate(tokens, rng, g):
        return set_key(tokens, key, val)
    mutate.__name__ = name
    return mutate


def repeated_participant(tokens, rng, g):
    p = value(tokens, "participants").split(",")
    return set_key(tokens, "participants", ",".join(p + [rng.choice(p)]))


def no_participants(tokens, rng, g):
    return set_key(tokens, "participants", ",")


def ghost_participant(tokens, rng, g):
    p = value(tokens, "participants").split(",")
    p[rng.randrange(len(p))] = "ghost"
    return set_key(tokens, "participants", ",".join(p))


def added_participant(tokens, rng, g):
    """Any other node as one more participant: on the split topology it
    may have no route."""
    p = value(tokens, "participants").split(",")
    rest = [n for n in g.index if n not in p and n != value(tokens, "server")]
    return rest and set_key(tokens, "participants",
                            ",".join(p + [rng.choice(rest)]))


def other_server(tokens, rng, g):
    """Any other node that is not a participant as the server: of the
    wrong kind, unreachable, or fine."""
    p = value(tokens, "participants").split(",")
    rest = [n for n in g.index if n not in p and n != value(tokens, "server")]
    return value(tokens, "server") and rest and set_key(
        tokens, "server", rng.choice(rest))


def server_participant(tokens, rng, g):
    return value(tokens, "server") and set_key(
        tokens, "server", value(tokens, "participants").split(",")[0])


def ghost_server(tokens, rng, g):
    return value(tokens, "server") and set_key(tokens, "server", "ghost")


def no_server(tokens, rng, g):
    return value(tokens, "server") and drop_key(tokens, "server")


def huge(tokens, rng, g):
    """1e308 bytes per transfer: past float range on the slow topology."""
    key = ("activation" if value(tokens, "strategy") == "pipeline_p2p"
           else "payload")
    return set_key(tokens, key, "1e308")


MUTATIONS = (
    drop_token, repeat_key, empty_value, bare_token, bad_head, non_number,
    fraction_for_integer, unknown_key, unknown_strategy, other_strategy,
    number("payload", "nan", "nan_payload"),
    number("payload", "inf", "inf_payload"),
    number("payload", "-1", "negative_payload"),
    number("window", "0", "zero_window"), number("rtt", "0", "zero_rtt"),
    number("microbatches", "0", "zero_microbatches"),
    number("microbatches", str(10 ** 300), "many_microbatches"),
    repeated_participant, no_participants, ghost_participant,
    added_participant, other_server, server_participant, ghost_server,
    no_server, huge)


def cases():
    """`(case name, topology text, levels text, the same levels text with
    every other level line blank)` for each mutation of each level line, in
    a fixed order."""
    rng = random.Random(23)
    for name, topo, levels in SOURCES:
        g = load_topology(topo)
        lines = levels.split("\n")
        at = [no for no, raw in enumerate(lines) if raw.startswith("level ")]
        for no in at:
            tokens = lines[no].split()
            for mutate in MUTATIONS:
                edited = mutate(list(tokens), rng, g)
                if not edited:
                    continue
                broken = lines[:no] + [" ".join(edited)] + lines[no + 1:]
                alone = ["" if i in at and i != no else raw
                         for i, raw in enumerate(broken)]
                yield (f"{name}:{no + 1}:{mutate.__name__}", topo,
                       "\n".join(broken), "\n".join(alone))


def message_records():
    """`(case, outcome)` for each of `cases()`, in order: the outcome is
    `plan`'s exit code and stderr, as `<code> <stderr>`."""
    with tempfile.TemporaryDirectory() as d:
        for name, topo, levels, _ in cases():
            topo, levels = write(Path(d), **{"t.topo": topo, "l.txt": levels})
            err = io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(err)):
                code = main(["plan", "--topo", topo, "--levels", levels])
            yield name, f"{code} {err.getvalue()}"


# a part of a message of each kind of level error, among them an unknown
# key and a key that the level's strategy does not read
KINDS = ("not a number", "level key 'zz'", "must be finite",
         "repeated participants", "level key 'server'", "is also a participant",
         "needs at least one participant", "unknown node",
         "needs a server= node", "expected one of", "no route from",
         "time is not a finite number")
# Recorded when each strategy came to read only its own level keys.
MESSAGES_SHA256 = "103c27c7e4d643f2e32274117f8d64d85b7dc4ea8ef47edbe862f77d3bbcdba3"


def test_level_messages_match_recorded_digest():
    digest = hashlib.sha256()
    count = accepted = 0
    kinds = set()
    for case, outcome in message_records():
        code, err = outcome.split(" ", 1)
        assert code in ("0", "2") and (code == "0") == (err == ""), (case, err)
        digest.update(f"{case}: {outcome}".encode())
        count += 1
        accepted += code == "0"
        kinds.update(k for k in KINDS if k in err)
    assert kinds == set(KINDS)
    assert (count, accepted) == (400, 34)
    assert digest.hexdigest() == MESSAGES_SHA256


def test_gnn_predict_rejects_what_plan_rejects(capsys, tmp_path):
    model, = write(tmp_path, **{"model.txt": gnn.save_model(
        gnn.init_model(seed=0))})
    for name, topo, levels, alone in cases():
        topo, levels, level = write(tmp_path, **{
            "t.topo": topo, "l.txt": levels, "level.txt": alone})
        code, _, err = run(capsys, "plan", "--topo", topo, "--levels", levels)
        predict = ["gnn", "predict", "--model", model, "--topo", topo,
                   "--level", level]
        for argv in (predict, predict + ["--compare"]):
            got, out, got_err = run(capsys, *argv)
            assert (got, got_err) == (code, err), (name, argv[-1])
            assert out.startswith("predicted ") == (code == 0)
