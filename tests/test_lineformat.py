"""The shared line format: exact error positions in every input format, and
a fuzz test that mutates valid topology, level, flow and model files."""

import contextlib
import io
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersmith import gnn
from clustersmith.cli import main
from clustersmith.errors import ParseError
from clustersmith.lineformat import decode, records

PRESETS = resources.files("clustersmith.presets")
DUAL = PRESETS.joinpath("dual-socket-pcie-switch.topo").read_text()
LEVEL = "level r strategy=ring_allreduce participants=a,b "
LEVELS = """
level r4 strategy=ring_allreduce participants=gpu0,gpu1,gpu2,gpu3 payload=10e9
level ps strategy=parameter_server participants=gpu0,gpu1,gpu2,gpu3 server=nic0 payload=1e9  # GPUs to the NIC
level pipe strategy=pipeline_p2p participants=gpu0,gpu1,gpu2 payload=0 microbatches=4 activation=1e8
"""
FLOWS = "flow f0 bytes=10e9\nflow f1 bytes=4e9 release=0.01\n# a comment\nflow f2 bytes=1e9\n"
MODEL = gnn.save_model(gnn.init_model(seed=0))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def argv_for(kind, path, d):
    """A command that reads `path` as a `kind` file, the rest from `d`."""
    if kind == "topo":
        return ["plan", "--topo", path, "--levels", str(d / "levels.txt")]
    if kind == "levels":
        return ["plan", "--topo", str(d / "dual.topo"), "--levels", path]
    if kind == "flows":
        return ["stagger", "--flows", path, "--upstream", "16", "--cap", "10"]
    return ["gnn", "predict", "--model", path, "--topo", str(d / "dual.topo"),
            "--level", str(d / "level.txt"), "--compare"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    (d / "dual.topo").write_text(DUAL)
    (d / "levels.txt").write_text(LEVELS)
    (d / "level.txt").write_text(LEVELS.split("\n")[1] + "\n")
    return d


def test_records_skip_comments_and_blank_lines():
    text = "# header\n\n  a b=1  # note\n\t\nc#d\n"
    assert [(line.no, line.tokens) for line in records(text)] == [
        (3, ["a", "b=1"]), (5, ["c"])]


# every character `str.splitlines` breaks at besides \n, \r\n and \r
OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("brk", OTHER_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_only_newlines_end_a_line(brk):
    text = f"node a kind=Gpu\r\nnode b kind=Gpu # note{brk}node c kind=Gpu\rx\ny"
    assert [(line.no, line.tokens) for line in records(text)] == [
        (1, ["node", "a", "kind=Gpu"]), (2, ["node", "b", "kind=Gpu"]),
        (3, ["x"]), (4, ["y"])]


@pytest.mark.parametrize("data,at", [
    (b"node a kind=Gpu\rnode b kind=\xffGpu\r", "line 2, col 13"),
    (b"node a kind=Gpu\r\nnode b kind=\xffGpu\r\n", "line 2, col 13"),
    (b"node a kind=Gpu\nnode b kind=\xffGpu\n", "line 2, col 13"),
    (b"node a kind=Gpu\r\xff", "line 2, col 1"),
    (b"node \xc3\xa9\xe2\x82\xac kind=\xffGpu", "line 1, col 14"),
    # U+2028 in a comment ends no line; the lone \r does
    (b"# \xe2\x80\xa8\rnode \xc3\xa9 kind=\xff", "line 2, col 13"),
], ids=["lone-cr", "crlf", "lf", "after-cr", "multi-byte", "u2028-then-cr"])
def test_bad_byte_is_placed_as_records_places_tokens(data, at):
    # lines end as `records` ends them, and columns count characters
    with pytest.raises(ParseError) as info:
        decode(data)
    offset = data.index(b"\xff")
    assert str(info.value) == f"{at}: not UTF-8: byte 0xff at offset {offset}"


@pytest.mark.parametrize("brk", OTHER_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_comment_breaks_move_no_line_number(tmp_path, inputs, brk):
    path = tmp_path / "input.topo"
    path.write_text(f"node a kind=Gpu\nnode b kind=Gpu # note{brk}node c kind=Gpu\n"
                    "\nnode a kind=Gpu\n", encoding="utf-8")
    # the comment hides node c, and the 4th line is reported as line 4
    assert run(argv_for("topo", str(path), inputs)) == (
        2, "", "error: line 4, col 6: duplicate node id 'a'\n")


@pytest.mark.parametrize("kind,text,message", [
    ("topo", "node box kind=Gpu x", "line 1, col 19: expected key=value, got 'x'"),
    ("topo", "  \tnode box kind=Gpu x  # tab",
     "line 1, col 22: expected key=value, got 'x'"),
    ("topo", "node a kind=Quantum", "line 1, col 8: unknown node kind 'Quantum'"),
    ("topo", "node a kind=Gpu kind=Nic", "line 1, col 17: repeated key 'kind'"),
    ("topo", "link a b kind=NvLink bw=1 bw=50", "line 1, col 27: repeated key 'bw'"),
    ("topo", "node a kind=Gpu\nlink a b kind=Pcie bw=5 color=red",
     "line 2, col 25: unknown link key 'color'"),
    ("topo", "node a kind=Gpu socket=", "line 1, col 17: malformed key=value 'socket='"),
    ("topo", "node a kind=Gpu\nnode b kind=Gpu\nnode a kind=Gpu",
     "line 3, col 6: duplicate node id 'a'"),
    ("topo", "node a kind=Gpu\nlink a z kind=NvLink bw=1",
     "line 2, col 8: link endpoint 'z' is not a declared node"),
    ("topo", "node a kind=Gpu\nnode b kind=Gpu\nlink a a kind=Pcie bw=5",
     "line 3, col 1: link a-a: self-link rejected"),
    ("topo", "node a kind=Gpu\nnode b kind=Gpu\nlink a b kind=NvLink bw=5 lanes=4",
     "line 3, col 1: link a-b: lanes only valid on Pcie links"),
    ("topo", "node a kind=Gpu\nnode b kind=Gpu\nlink a b kind=NvLink bw=nan",
     "line 3, col 1: link a-b: bw must be finite and > 0, got nan"),
    ("levels", LEVEL + "payload=abc", "line 1, col 50: payload: not a number: 'abc'"),
    ("levels", "level r strategy=pipeline_p2p participants=a,b payload=1 "
     "microbatches=2.5", "line 1, col 58: microbatches: not an integer: '2.5'"),
    ("levels", "level r strategy=in_network_aggregation participants=a,b "
     "payload=1e9 window=x", "line 1, col 70: window: not an integer: 'x'"),
    ("levels", LEVEL + "payload=1 payload=2", "line 1, col 60: repeated key 'payload'"),
    ("flows", "flow f bytes=1e9 speed=3", "line 1, col 18: unknown flow key 'speed'"),
    ("flows", "flow f bytes=1e9 bytes=2e9", "line 1, col 18: repeated key 'bytes'"),
    ("model", "\n".join(MODEL.splitlines()[:2] + ["label_mu x"]
                        + MODEL.splitlines()[3:]),
     "line 3, col 10: label_mu: not a number: 'x'"),
], ids=["topo-not-kv", "topo-tab-and-comment", "topo-unknown-kind",
        "topo-repeated-kind", "topo-repeated-bw", "topo-unknown-link-key",
        "topo-empty-value", "topo-duplicate-node", "topo-undeclared-endpoint",
        "topo-self-link", "topo-lanes-on-nvlink", "topo-bw-nan",
        "levels-payload-not-number",
        "levels-microbatches-not-integer", "levels-window-not-integer",
        "levels-repeated-payload", "flows-unknown-key", "flows-repeated-bytes",
        "model-not-number"])
def test_errors_name_line_and_column(tmp_path, inputs, kind, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text + "\n")
    assert run(argv_for(kind, str(path), inputs)) == (2, "", f"error: {message}\n")


def test_error_column_is_exact_for_repeated_substrings():
    line = next(records("x x=1 xx=2 y=3"))
    for at, col in ((0, 1), (1, 3), (2, 7), (3, 12), ("x", 3), ("xx", 7)):
        assert line.error("m", at).column == col
    # a positional token that looks like `key=value` is not the key's token
    assert next(records("node a=b a=c")).error("m", "a").column == 10


def targets(data: bytes):
    """Spans of every token, and of the value of every `key=value` token."""
    spans = [m.span() for m in re.finditer(rb"\S+", data)]
    return spans + [m.span(1) for m in re.finditer(rb"[^\s=]=(\S+)", data)]


def prints_nan(out: str, data: bytes) -> bool:
    """Whether stdout shows a NaN; flow ids and level names, which are
    echoed as given, do not count."""
    names = {t[1] for t in map(str.split, data.decode(errors="replace").splitlines())
             if len(t) > 1 and t[0] in ("flow", "level")}
    return "nan" in set(re.split(r"[\s=(),:]+", out)) - names


FILES = {"topo": DUAL, "levels": LEVELS, "flows": FLOWS, "model": MODEL}
REPLACEMENTS = [b"nan", b"x", b"=", b"k=", b"\xff",
                b"1" + b"0" * 400]  # an integer too large for a float


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kind=st.sampled_from(sorted(FILES)), data=st.data())
def test_mutated_inputs_exit_0_or_2(inputs, kind, data):
    raw = FILES[kind].encode()
    start, end = data.draw(st.sampled_from(targets(raw)), label="target")
    edit = data.draw(st.sampled_from(["drop", "duplicate"] + REPLACEMENTS),
                     label="edit")
    if edit == "drop":
        raw = raw[:start] + raw[end:]
    elif edit == "duplicate":
        raw = raw[:end] + b" " + raw[start:]
    else:
        raw = raw[:start] + edit + raw[end:]
    path = inputs / f"mutated.{kind}"
    path.write_bytes(raw)
    code, out, err = run(argv_for(kind, str(path), inputs))
    assert code in (0, 2), err
    assert "Traceback" not in err and not prints_nan(out, raw)
    if code == 2:
        assert err.startswith("error: ") and out == ""
