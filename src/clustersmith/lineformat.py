"""The line format of topology, level, flow and model files.

A line holds whitespace-separated tokens; `#` starts a comment, and lines
with no token are skipped.  Leading positional tokens are followed by
`key=value` tokens, with neither side empty and no key repeated.  Errors
are ParseErrors at the line and 1-based column of the token at fault, or
of the line's first token for the whole declaration.  A column is found
only when its error is raised, so well-formed input never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError


def decode(data: bytes) -> str:
    """`data` as UTF-8 text; a ParseError at the first byte that is not,
    its line and column counted as `records` counts them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        lines = _lines(data[:at].decode("utf-8"))
        raise ParseError(f"not UTF-8: byte 0x{data[at]:02x} at offset {at}",
                         len(lines), len(lines[-1]) + 1) from None


def _lines(text: str) -> list[str]:
    """`text` split at `\\n`, `\\r\\n` or `\\r` only, as in an editor: not at
    the other breaks `str.splitlines` knows, such as U+2028 in a comment."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def line_after(text: str) -> int:
    """The number of the line after `text`'s last, counted as `records`
    counts lines: where something missing from the whole file is placed."""
    lines = _lines(text)
    return len(lines) + (lines[-1] != "")


def records(text: str):
    """A `Line` for each line of `text` that holds a token, in file order;
    lines end as `_lines` ends them."""
    for no, raw in enumerate(_lines(text), start=1):
        body = raw.partition("#")[0]
        tokens = body.split()
        if tokens:
            yield Line(no, body, tokens)


@dataclass(slots=True)
class Line:
    no: int            # 1-based line number
    text: str          # the line without its comment
    tokens: list[str]

    def error(self, message: str, at: int | str = 0) -> ParseError:
        """A ParseError at token `at`: an index, or a `key=value` token's key."""
        if isinstance(at, str):
            prefix = at + "="
            at = max(i for i, t in enumerate(self.tokens) if t.startswith(prefix))
        col = 0
        for token in self.tokens[:at + 1]:
            start = self.text.index(token, col)
            col = start + len(token)
        return ParseError(message, self.no, start + 1)

    def fields(self, start: int) -> dict:
        """The `key=value` tokens from index `start` on, as {key: value}."""
        out = {}
        for token in self.tokens[start:]:
            key, eq, value = token.partition("=")
            if not (key and value) or key in out:
                # this is token start + len(out): each before it took a key
                raise self.error(f"repeated key {key!r}" if key and value else
                                 f"malformed key=value {token!r}" if eq else
                                 f"expected key=value, got {token!r}",
                                 start + len(out))
            out[key] = value
        return out

    def numbers(self, fields: dict, spec) -> list:
        """Pop each `(key, kind, default)` of `spec` from `fields`, in one
        pass: its value as a `kind` (float, int or str), or `default` if
        absent."""
        out = []
        for key, kind, default in spec:
            value = fields.pop(key, None)
            try:
                out.append(default if value is None else kind(value))
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise self.error(f"{key}: not {what}: {value!r}", key) from None
        return out

    def enum(self, fields: dict, key: str, members: dict, what: str):
        """Pop `key` from `fields` as the value `members` maps it to: a
        kind's Enum member, or a strategy's level record class."""
        value = fields.pop(key)
        if value not in members:
            raise self.error(f"unknown {what} {value!r}", key)
        return members[value]

    def no_more(self, fields: dict, what: str) -> None:
        """A ParseError at the first key left in `fields`, if any."""
        for key in fields:
            raise self.error(f"unknown {what} key {key!r}", key)
