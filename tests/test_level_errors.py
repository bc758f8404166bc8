"""Errors while pricing a level point at that level's line: a routing error
at its `participants=` token, named for the level, and a time that is not
finite at the line's first token."""

import pytest

from clustersmith import gnn
from clustersmith.cli import load_levels, main
from clustersmith.errors import ValidationError
from clustersmith.parallelism import build_time_matrix, comm_time
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
    ab, r = load_levels(LEVELS, g)
    assert comm_time(ab, g)
    with pytest.raises(ValidationError) as info:
        comm_time(r, g)
    assert str(info.value) == "level 'r': no route from 'b' to 'c'"
    assert info.value.at[0] is r and info.value.at[1] == "participants"


def test_time_that_is_not_finite_is_at_its_level():
    g = load_topology(SLOW)
    level, = load_levels(HUGE, g)
    with pytest.raises(ValidationError) as info:
        build_time_matrix([level], g)
    assert info.value.at[0] is level and info.value.at[1] is None


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
    code, out, err = run(capsys, *argv)  # the prediction alone needs no route
    assert (code, err) == (0, "") and out.startswith("predicted ")
