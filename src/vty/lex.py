"""Line tokenizer shared by the formula parser and the manifest reader."""

from __future__ import annotations

from dataclasses import dataclass

_PUNCT = {"(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE"}
_BREAKERS = set(' \t#(){}"')


@dataclass(frozen=True)
class Token:
    kind: str  # LPAREN RPAREN LBRACE RBRACE STRING WORD
    text: str  # for STRING this is the unescaped value
    col: int   # 0-based column of the first character


class LexError(ValueError):
    """A fault at a column of one line; the manifest reader also raises it."""

    def __init__(self, message: str, col: int):
        super().__init__(message)
        self.message = message
        self.col = col


def _scan_string(line: str, start: int) -> tuple[str, int]:
    # start points at the opening quote; a string with no escape before
    # its closing quote is a plain slice, anything else takes the loop
    end = line.find('"', start + 1)
    if end >= 0 and line.find("\\", start + 1, end) < 0:
        return line[start + 1:end], end + 1
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
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch == '"':
            value, end = _scan_string(line, i)
            tokens.append(Token("STRING", value, i))
            i = end
            continue
        j = i
        while j < n and line[j] not in _BREAKERS:
            j += 1
        tokens.append(Token("WORD", line[i:j], i))
        i = j
    return tokens
