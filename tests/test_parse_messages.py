"""Every `load_topology` message, pinned: each line of both presets and of
a 258-node cluster topology is broken in a fixed, seeded set of ways, and a
SHA-256 over the resulting messages is compared with a recorded one.
Any change of a message, a line or a column shows.  `Link`, built
directly, is checked against its rules applied one at a time."""

import hashlib
import itertools
import math
import random
import sys
from importlib import resources
from pathlib import Path

from clustersmith.errors import ClusterError, ValidationError, check_number
from clustersmith.topology import VALID_LANES, Link, LinkKind, load_topology

NUMERIC = ("bw", "lat", "b", "lanes", "socket")


def keys(tokens):
    return [i for i, t in enumerate(tokens) if "=" in t]


def set_key(tokens, key, value):
    """`tokens` with `key=value` in place of `key`'s token, or appended."""
    out = [t for t in tokens if not t.startswith(key + "=")]
    at = next((i for i, t in enumerate(tokens) if t.startswith(key + "=")),
              len(tokens))
    return out[:at] + [f"{key}={value}"] + out[at:]


def drop_token(tokens, rng):
    i = rng.randrange(len(tokens))
    return [tokens[:i] + tokens[i + 1:]]


def repeat_key(tokens, rng):
    at = keys(tokens)
    return at and [tokens + [tokens[rng.choice(at)]]]


def empty_value(tokens, rng):
    at = keys(tokens)
    if not at:
        return None
    i = rng.choice(at)
    return [tokens[:i] + [tokens[i].partition("=")[0] + "="] + tokens[i + 1:]]


def non_number(tokens, rng):
    at = [i for i in keys(tokens) if tokens[i].partition("=")[0] in NUMERIC]
    if not at:
        return None
    i = rng.choice(at)
    return [tokens[:i] + [tokens[i] + "x"] + tokens[i + 1:]]


def bw(value, name):
    def mutate(tokens, rng):
        return tokens[0] == "link" and [set_key(tokens, "bw", value)]
    mutate.__name__ = name
    return mutate


def unknown_key(tokens, rng):
    return [tokens + ["zz=1"]]


def bad_duplex(tokens, rng):
    return tokens[0] == "link" and [set_key(tokens, "duplex", "maybe")]


def bad_lanes(tokens, rng):
    return tokens[0] == "link" and [set_key(tokens, "lanes", "3")]


def unknown_kind(tokens, rng):
    return tokens[0] in ("node", "link") and [set_key(tokens, "kind", "Bogus")]


def lanes_off_pcie(tokens, rng):
    if tokens[0] != "link":
        return None
    out = set_key(tokens, "kind", "NvLink")
    return [out if any(t.startswith("lanes=") for t in out)
            else out + ["lanes=4"]]


def self_link(tokens, rng):
    return tokens[0] == "link" and [tokens[:2] + [tokens[1]] + tokens[3:]]


def undeclared_endpoint(tokens, rng):
    return tokens[0] == "link" and [tokens[:2] + ["ghost"] + tokens[3:]]


def repeated_node(tokens, rng):
    return tokens[0] == "node" and [tokens, tokens]


def two_faults(tokens, rng):
    """Two of the one-line mutations above, so that which fault a line
    reports first is pinned too."""
    for mutate in rng.sample(ONE_LINE, 2):
        edited = mutate(tokens, rng)
        if edited:
            tokens, = edited
    return [tokens]


ONE_LINE = (drop_token, repeat_key, empty_value, non_number,
            bw("nan", "nan_bw"), bw("inf", "inf_bw"), bw("-1", "negative_bw"),
            unknown_key, bad_duplex, bad_lanes, unknown_kind, lanes_off_pcie,
            self_link, undeclared_endpoint)
MUTATIONS = ONE_LINE + (repeated_node, two_faults)

PRESETS = resources.files("clustersmith.presets")
SOURCES = (
    ("nvlink4", PRESETS.joinpath("nvlink4.topo").read_text(), None),
    ("dual-socket", PRESETS.joinpath("dual-socket-pcie-switch.topo")
     .read_text(), None),
    # Every mutation on each of its 701 lines would take about a minute, so
    # each line gets one, drawn by the seeded generator.
    ("cluster", (Path(__file__).parent / "data" / "plan-cluster-seed1.topo")
     .read_text(), 1),
)

# Recorded when node lines stopped keeping unknown keys as labels: each is
# an error at its token, as on link and flag lines.
MESSAGES_SHA256 = "d584a047e08e5c6554f7fa9629ae61d8a7036fc03d5491511dd50b774d2cfdc4"


def message_records():
    """`(case, outcome)` for each case, in order: the case is
    `source:line:mutation`, the outcome `ok` or `load_topology`'s message."""
    rng = random.Random(21)
    for name, text, per_line in SOURCES:
        lines = text.split("\n")
        for no, raw in enumerate(lines):
            tokens = raw.partition("#")[0].split()
            if not tokens:
                continue
            mutations = MUTATIONS if per_line is None else rng.sample(
                MUTATIONS, per_line)
            for mutate in mutations:
                edited = mutate(list(tokens), rng)
                if not edited:
                    continue
                mutated = "\n".join(lines[:no] + [" ".join(t) for t in edited]
                                    + lines[no + 1:])
                try:
                    load_topology(mutated)
                    out = "ok"
                except ClusterError as exc:
                    out = str(exc)
                yield f"{name}:{no + 1}:{mutate.__name__}", out


def test_topology_messages_match_recorded_digest():
    digest = hashlib.sha256()
    cases = accepted = 0
    for case, outcome in message_records():
        digest.update(f"{case}: {outcome}\n".encode())
        cases += 1
        accepted += outcome == "ok"
    assert (cases, accepted) == (884, 24)
    assert digest.hexdigest() == MESSAGES_SHA256


def rule_by_rule(a, b, kind, bandwidth, latency, lanes, over):
    """The message of the first link rule broken, checked one rule at a
    time as the dataclass `Link` checked them, or None."""
    try:
        if a == b:
            raise ValidationError("self-link rejected")
        if not isinstance(kind, LinkKind):
            raise ValidationError(f"unknown link kind {kind!r}")
        check_number("bw", bandwidth, positive=True)
        check_number("lat", latency)
        check_number("b", over)
        if lanes is not None and kind != LinkKind.PCIE:
            raise ValidationError("lanes only valid on Pcie links")
        if lanes not in (None, *VALID_LANES):
            raise ValidationError(f"lanes must be one of {VALID_LANES}")
    except ValidationError as exc:
        return f"link {a}-{b}: {exc}"
    return None


BIG = int(sys.float_info.max)
NUMBERS = (1.0, 0.0, -0.0, 5e-324, sys.float_info.max, math.inf, -math.inf,
           math.nan, -1, 3, BIG, BIG + 1, 2 ** 1024, True)
# a valid link's fields, then the values each field is tried with
FIELDS = ((("a", "b"), [("a", "b"), ("a", "a")]),
          (LinkKind.PCIE, [LinkKind.PCIE, LinkKind.NVLINK, "Pcie", None]),
          (16.0, NUMBERS), (0.5, NUMBERS),
          (16, [None, 0, 1, 3, 16, 16.0, 32, True]), (0.0, NUMBERS))


def test_link_accepts_exactly_what_each_rule_accepts():
    # Link's one-expression test must never pass a link that a rule
    # rejects: every value of every two fields, the rest valid.
    cases = 0
    for i, j in itertools.combinations(range(len(FIELDS)), 2):
        for x, y in itertools.product(FIELDS[i][1], FIELDS[j][1]):
            values = [base for base, _ in FIELDS]
            values[i], values[j] = x, y
            (a, b), *rest = values
            try:
                Link(a, b, *rest)
                got = None
            except ValidationError as exc:
                got = str(exc)
            assert got == rule_by_rule(a, b, *rest), values
            cases += 1
    assert cases == 1232
