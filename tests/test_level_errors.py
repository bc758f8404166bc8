"""Errors while pricing a level point at that level's line: a routing error
at its `participants=` token, named for the level, and a time that is not
finite at the line's first token.  Each level is priced at its line, so
the first line at fault is the one named, and `gnn predict` rejects what
`plan` rejects."""

import pytest

from clustersmith import gnn
from clustersmith.cli import load_levels, main
from clustersmith.errors import ParseError, ValidationError
from clustersmith.parallelism import ParallelLevel, Strategy, comm_time
from clustersmith.topology import load_topology

# c is declared but joined to nothing
SPLIT = """\
node a kind=Gpu
node b kind=Gpu
node c kind=Gpu
link a b kind=NvLink bw=40
"""
LEVELS = """\
# priced in file order: the first level routes, the second cannot
level ab strategy=ring_allreduce participants=a,b payload=1e9

  level r   strategy=ring_allreduce  participants=a,b,c payload=1e9
"""
NO_ROUTE = "error: line 4, col 38: level 'r': no route from 'b' to 'c'\n"
# finite links whose phase time overflows
SLOW = "node a kind=Gpu\nnode b kind=Gpu\nlink a b kind=NvLink bw=1e-300\n"
HUGE = "level r strategy=ring_allreduce participants=a,b payload=1e308\n"
NOT_FINITE = ("error: line 1, col 1: level 'r': time is not a finite number "
              "of seconds\n")


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("CLUSTERSMITH_NO_COLOR", "1")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, **files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in files]


def test_routing_error_names_the_level_at_its_participants():
    g = load_topology(SPLIT)
    r = ParallelLevel("r", Strategy.RING_ALLREDUCE, ("a", "b", "c"), 1e9)
    with pytest.raises(ValidationError) as info:
        comm_time(r, g)
    assert str(info.value) == "level 'r': no route from 'b' to 'c'"
    assert info.value.at[0] is r and info.value.at[1] == "participants"


def test_time_that_is_not_finite_is_at_its_level():
    g = load_topology(SLOW)
    with pytest.raises(ParseError) as info:
        load_levels(HUGE, g)
    assert f"error: {info.value}\n" == NOT_FINITE


def test_plan_with_no_route_points_at_the_level(capsys, tmp_path):
    topo, levels = write(tmp_path, **{"t.topo": SPLIT, "levels.txt": LEVELS})
    out_json = tmp_path / "m.json"
    assert run(capsys, "plan", "--topo", topo, "--levels", levels,
               "--json", str(out_json)) == (2, "", NO_ROUTE)
    assert not out_json.exists()


@pytest.fixture
def model(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(gnn.save_model(gnn.init_model(seed=0)))
    return str(path)


@pytest.mark.parametrize("topo, level, message", [
    (SPLIT, LEVELS.splitlines()[3] + "\n",
     "error: line 1, col 38: level 'r': no route from 'b' to 'c'\n"),
    (SLOW, HUGE, NOT_FINITE),
])
def test_gnn_predict_compare_prints_nothing_before_the_error(
        capsys, tmp_path, model, topo, level, message):
    topo, level = write(tmp_path, **{"t.topo": topo, "level.txt": level})
    argv = ["gnn", "predict", "--model", model, "--topo", topo,
            "--level", level]
    assert run(capsys, *argv, "--compare") == (2, "", message)
    assert run(capsys, *argv) == (2, "", message)


# line 1 has no route and line 2 is not read: the first line at fault
FAULTS = """\
level r strategy=ring_allreduce participants=a,b,c payload=1e9
level ab strategy=ring_allreduce participants=a,b payload=oops
"""


def test_the_first_line_at_fault_is_named(capsys, tmp_path, model):
    topo, levels = write(tmp_path, **{"t.topo": SPLIT, "levels.txt": FAULTS})
    message = "error: line 1, col 33: level 'r': no route from 'b' to 'c'\n"
    assert run(capsys, "plan", "--topo", topo, "--levels", levels) == (
        2, "", message)
    assert run(capsys, "gnn", "predict", "--model", model, "--topo", topo,
               "--level", levels) == (2, "", message)


# an empty name beside others is an error at the `participants=` token;
# no name at all is a level without participants
@pytest.mark.parametrize("names, message", [
    ("a,,b", "empty participant name"),
    ("a,b,", "empty participant name"),
    (",a,b", "empty participant name"),
    (",", "needs at least one participant"),
])
def test_an_empty_participant_name_is_rejected(capsys, tmp_path, model,
                                               names, message):
    text = f"level r strategy=ring_allreduce participants={names} payload=1e9\n"
    topo, levels = write(tmp_path, **{"t.topo": SPLIT, "levels.txt": text})
    error = f"error: line 1, col 33: level 'r': {message}\n"
    assert run(capsys, "plan", "--topo", topo, "--levels", levels) == (
        2, "", error)
    predict = ["gnn", "predict", "--model", model, "--topo", topo,
               "--level", levels]
    assert run(capsys, *predict) == (2, "", error)
    assert run(capsys, *predict, "--compare") == (2, "", error)
