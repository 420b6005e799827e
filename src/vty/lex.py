"""Line splitter shared by the formula parser and the manifest reader.

The readers take a line as its token texts, a list of `str`: a word, a
parenthesis or brace, or a string with its quotes kept, so a token's
kind is its first character and a string's value is ``text[1:-1]``.
`split_line` gives them, one line at a time. A reader's fault names a
token index (`TokenFault`), and the column it reports is found with
`column` only then, by reading that one line again with `tokenize_line`,
whose `Token` records carry columns. `NON_WORD` lets a reader tell a
word from the other kinds by its first character, where it stands.
`_ascii_digits` decides what text is a number, here and in machine text.
"""

from __future__ import annotations

import re
from typing import NamedTuple

_PUNCT = {"(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE"}
# after any blanks: a word (1), a parenthesis or brace (2), a string with
# no escape (3), the quote of any other string (4), or no token at all (a
# comment or the end of the line); one of them always matches
_TOKEN = re.compile(r'[ \t]*(?:([^ \t#(){}"]+)|([(){}])|"([^"\\]*)"|(")|#|\Z)')
# the texts of a line with no comment, no escape and no unterminated string:
# there only blanks lie between the tokens, so one findall reads them all
_PLAIN = re.compile(r'[^ \t#(){}"]+|[(){}]|"[^"\\]*"')

# the first characters of the token texts that are no word
NON_WORD = '(){}"'


class Token(NamedTuple):
    kind: str  # LPAREN RPAREN LBRACE RBRACE STRING WORD
    text: str  # for STRING this is the unescaped value
    col: int   # 0-based column of the first character


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
    out: list[str] = []
    i = start + 1
    while i < len(line):
        ch = line[i]
        if ch == '"':
            return "".join(out), i + 1
        if ch == "\\":
            if i + 1 >= len(line) or line[i + 1] not in ('"', "\\"):
                raise LexError("bad escape in string", i)
            out.append(line[i + 1])
            i += 2
            continue
        out.append(ch)
        i += 1
    raise LexError("unterminated string", start)


def tokenize_line(line: str) -> list[Token]:
    """Split one line into tokens. A # outside a string starts a comment."""
    tokens: list[Token] = []
    match = _TOKEN.match
    i = 0
    while True:
        m = match(line, i)
        group = m.lastindex
        if group is None:
            return tokens
        i = m.end()
        if group == 1:
            tokens.append(Token("WORD", m[1], m.start(1)))
        elif group == 2:
            tokens.append(Token(_PUNCT[m[2]], m[2], m.start(2)))
        elif group == 3:
            tokens.append(Token("STRING", m[3], m.start(3) - 1))
        else:
            value, i = _scan_string(line, m.start(4))
            tokens.append(Token("STRING", value, m.start(4)))


def split_line(line: str) -> list[str]:
    """The token texts of one line, each string with its quotes; a fault
    raises LexError as `tokenize_line` does."""
    if "#" not in line and "\\" not in line and not line.count('"') & 1:
        return _PLAIN.findall(line)
    return [f'"{tok.text}"' if tok.kind == "STRING" else tok.text for tok in tokenize_line(line)]


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
        return tokens[index].col
    return tokens[-1].col + len(tokens[-1].text) if tokens else 0
