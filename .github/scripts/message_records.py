"""Print one `source:line:mutation: outcome` line per case of the two
message-digest corpora of a source tree: first `load_topology`'s, then
`plan`'s on level lines.  The lines come from the `message_records`
functions that `tests/test_parse_messages.py` and
`tests/test_level_messages.py` hash, so two trees' outputs diff to exactly
the cases whose message changed.

    python .github/scripts/message_records.py TREE > records.txt

Exits 3, printing nothing, if TREE's tests have no record functions.
"""

import sys
from pathlib import Path

SKIPPED = 3


def main() -> None:
    tree = Path(sys.argv[1]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    import test_level_messages
    import test_parse_messages

    corpora = (test_parse_messages, test_level_messages)
    if not all(hasattr(module, "message_records") for module in corpora):
        print(f"{tree}: no message record functions", file=sys.stderr)
        sys.exit(SKIPPED)
    for module in corpora:
        for case, outcome in module.message_records():
            print(f"{case}: {outcome}".rstrip())


if __name__ == "__main__":
    main()
