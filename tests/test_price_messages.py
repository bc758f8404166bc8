"""Every `price` output, pinned: a fixed grid of `price coverage` and
`price breakeven` command lines, each option given one of the fuzz values
or left out, and a SHA-256 over each run's exit code, stdout and stderr
compared with a recorded one.  Any change of a result, a message or an
exit code shows."""

import contextlib
import hashlib
import io
import itertools
from collections import Counter

from clustersmith.cli import main

BIG = "1" + "0" * 400  # an integer too large for a float
VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "1e-300", "1e-320", BIG,
          "12.5", "3751.82", None)  # None leaves the option out

# Recorded before `pricing` took plain numbers in place of its records.
PRICE_SHA256 = "963e74ab7f6ce1da8f00d20d9008442e749734502ac51d220f563ffbde72a36d"


def argvs():
    """`price coverage --tables` alone, then every coverage line, then every
    breakeven line that gives `--monthly`, which argparse requires."""
    yield ["price", "coverage", "--tables"]
    grids = (("coverage", ("--funding", "--monthly"), VALUES),
             ("breakeven", ("--capex", "--opex", "--monthly"), VALUES[:-1]))
    for action, options, last in grids:
        for values in itertools.product(*[VALUES] * (len(options) - 1), last):
            yield ["price", action] + [f"{o}={v}" for o, v in zip(options, values)
                                       if v is not None]


def test_price_outputs_match_recorded_digest():
    digest = hashlib.sha256()
    codes = []
    for argv in argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        codes.append(code)
        digest.update(f"{' '.join(argv)}\nexit {code}\n{out.getvalue()}"
                      f"---\n{err.getvalue()}---\n".encode())
    assert Counter(codes) == {0: 164, 2: 1565}
    assert digest.hexdigest() == PRICE_SHA256
