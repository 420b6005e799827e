"""Line splitter shared by the formula parser and the manifest reader.

The readers take a line as its token texts, a list of `str`: a word, a
parenthesis or brace, or a string with its quotes kept, so a token's
kind is its first character and a string's value is ``text[1:-1]``.
`split_line` gives them, one line at a time. A reader's fault names a
token index (`TokenFault`), and the column it reports is found with
`column` only then, by reading that one line again with `tokenize_line`,
which gives each text with its column. `NON_WORD` lets a reader tell a
word from the other kinds by its first character, where it stands.
`_ascii_digits` decides what text is a number, here and in machine text.
"""

from __future__ import annotations

import re

# after any blanks: a word, parenthesis, brace or string with no escape
# (1), the quote of any other string (2), or no token at all (a comment or
# the end of the line); one of them always matches
_TOKEN = re.compile(r'[ \t]*(?:([^ \t#(){}"]+|[(){}]|"[^"\\]*")|(")|#|\Z)')
# the texts of a line with no comment, no escape and no unterminated string:
# there only blanks lie between the tokens, so one findall reads them all
_PLAIN = re.compile(r'[^ \t#(){}"]+|[(){}]|"[^"\\]*"')
# a string's body up to its closing quote, and one escape in that body
_BODY = re.compile(r'(?:[^"\\]|\\["\\])*')
_ESCAPE = re.compile(r'\\(["\\])')

# the first characters of the token texts that are no word
NON_WORD = '(){}"'


class LexError(ValueError):
    """A fault at a column of one line; the manifest reader also raises it."""

    def __init__(self, message: str, col: int):
        super().__init__(message)
        self.message = message
        self.col = col


class TokenFault(ValueError):
    """A reader's fault at token `index` of a line's texts; an index past
    the last text means the end of the line."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


def _scan_string(line: str, start: int) -> tuple[str, int]:
    # start points at the opening quote; _TOKEN reads a string with no
    # escape, so the lexer calls this for the others and unterminated ones
    end = _BODY.match(line, start + 1).end()
    if line[end:end + 1] == '"':
        return _ESCAPE.sub(r"\1", line[start + 1:end]), end + 1
    if end < len(line):  # a backslash before neither a quote nor a backslash
        raise LexError("bad escape in string", end)
    raise LexError("unterminated string", start)


def tokenize_line(line: str) -> list[tuple[str, int]]:
    """Split one line into (text, column) pairs, each text as `split_line`
    gives it. A # outside a string starts a comment."""
    tokens: list[tuple[str, int]] = []
    match = _TOKEN.match
    i = 0
    while True:
        m = match(line, i)
        if m.lastindex is None:
            return tokens
        if m.lastindex == 1:
            tokens.append((m[1], m.start(1)))
            i = m.end()
        else:
            value, i = _scan_string(line, m.start(2))
            tokens.append((f'"{value}"', m.start(2)))


def split_line(line: str) -> list[str]:
    """The token texts of one line, each string with its quotes; a fault
    raises LexError as `tokenize_line` does."""
    if "#" not in line and "\\" not in line and not line.count('"') & 1:
        return _PLAIN.findall(line)
    return [text for text, _ in tokenize_line(line)]


def _ascii_digits(text: str) -> bool:
    """Whether `text` is one or more ASCII digits: str.isdecimal also admits
    other scripts' digits, and int() signs, blanks and underscores."""
    return text.isascii() and text.isdecimal()


def token_value(text: str) -> str:
    """What a fault names a token by: a string's value, or the text."""
    return text[1:-1] if text[0] == '"' else text


def column(line: str, index: int, width: int) -> int:
    """The column of token `index` of `line`, counting only its first
    `width` tokens; an index past them names the end of the last one."""
    tokens = tokenize_line(line)[:width]
    if index < len(tokens):
        return tokens[index][1]
    return tokens[-1][1] + len(token_value(tokens[-1][0])) if tokens else 0
