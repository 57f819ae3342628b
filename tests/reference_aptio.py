"""Code that aptk.aptio replaced, kept verbatim as the reference for its
differential tests: the character-by-character lexer (against
aptio._tokenize) and the LTS renderer that built one marking comment per
state (against aptio.render)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from aptk.aptio import _check_names, _quote
from aptk.common import ParseError
from aptk.lts import Lts
from aptk.petri import OMEGA, Marking

_PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACK",
    "]": "RBRACK",
    ",": "COMMA",
    ":": "COLON",
    "*": "STAR",
    "=": "EQUALS",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # SECTION ID NUM STR ARROW plus _PUNCT values and EOF
    value: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k: int = 1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                advance()
            continue
        if text.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not text.startswith("*/", i):
                advance()
            if i >= n:
                raise ParseError("unterminated comment", start_line, start_col)
            advance(2)
            continue
        start_line, start_col = line, col
        if ch == ".":
            advance()
            j = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance()
            word = text[j:i]
            if not word:
                raise ParseError("lone '.'", start_line, start_col)
            tokens.append(_Token("SECTION", word, start_line, start_col))
            continue
        if ch == '"':
            advance()
            out = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string", start_line, start_col)
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        raise ParseError("dangling escape", line, col)
                    nxt = text[i + 1]
                    if nxt not in ('"', "\\"):
                        raise ParseError(f"unknown escape \\{nxt}", line, col)
                    out.append(nxt)
                    advance(2)
                    continue
                if c == '"':
                    advance()
                    break
                out.append(c)
                advance()
            tokens.append(_Token("STR", "".join(out), start_line, start_col))
            continue
        if text.startswith("->", i):
            advance(2)
            tokens.append(_Token("ARROW", "->", start_line, start_col))
            continue
        if ch in _PUNCT:
            advance()
            tokens.append(_Token(_PUNCT[ch], ch, start_line, start_col))
            continue
        if ch.isdigit():
            j = i
            while i < n and text[i].isdigit():
                advance()
            tokens.append(_Token("NUM", text[j:i], start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance()
            tokens.append(_Token("ID", text[j:i], start_line, start_col))
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


def _marking_comment(marking: Marking) -> str:
    inner = " ".join(
        f"[{p}:{'OMEGA' if c is OMEGA else c}]" for p, c in marking.items()
    )
    return f"/* [ {inner} ] */"


def _render_lts(lts: Lts, markings: Optional[Dict[str, Marking]] = None) -> str:
    _check_names("state", lts.states)
    _check_names("label", lts.labels)
    if markings:
        # the places of the marking comments, once per distinct place tuple
        for places in {id(m.places): m.places for m in markings.values()}.values():
            _check_names("place", places)
    lines = [f".name {_quote(lts.name)}"]
    if lts.description:
        lines.append(f".description {_quote(lts.description)}")
    lines.append(".type LTS")
    lines.append(".states")
    for s in lts.states:
        entry = f"{s}[initial]" if s == lts.initial else s
        if markings and s in markings:
            entry = f"{entry} {_marking_comment(markings[s])}"
        lines.append(entry)
    lines.append(".labels")
    if lts.labels:
        entries = []
        for t in lts.labels:
            location = lts.location(t)
            entries.append(t if location is None else f'{t}[location={_quote(location)}]')
        lines.append(" ".join(entries))
    lines.append(".arcs")
    for arc in lts.arcs:
        lines.append(f"{arc.source} {arc.label} {arc.target}")
    return "\n".join(lines) + "\n"
