"""Code that aptk.aptio replaced, kept verbatim as the reference for its
differential tests: the character-by-character lexer (against
aptio._tokenize; renamed _char_tokenize here), the LTS renderer that built
one marking comment per state (against aptio.render), and the parser over
one offset-carrying token object per token (against aptio.parse)."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from aptk.aptio import Document, _check_names, _quote
from aptk.common import AptError, ParseError
from aptk.lts import Lts
from aptk.petri import OMEGA, Marking, PetriNet

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
class _CharToken:
    kind: str  # SECTION ID NUM STR ARROW plus _PUNCT values and EOF
    value: str
    line: int
    column: int


def _char_tokenize(text: str) -> List[_CharToken]:
    tokens: List[_CharToken] = []
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
            tokens.append(_CharToken("SECTION", word, start_line, start_col))
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
            tokens.append(_CharToken("STR", "".join(out), start_line, start_col))
            continue
        if text.startswith("->", i):
            advance(2)
            tokens.append(_CharToken("ARROW", "->", start_line, start_col))
            continue
        if ch in _PUNCT:
            advance()
            tokens.append(_CharToken(_PUNCT[ch], ch, start_line, start_col))
            continue
        if ch.isdigit():
            j = i
            while i < n and text[i].isdigit():
                advance()
            tokens.append(_CharToken("NUM", text[j:i], start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance()
            tokens.append(_CharToken("ID", text[j:i], start_line, start_col))
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_CharToken("EOF", "", line, col))
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


# ---------------------------------------------------------------------------
# The lexer with one offset-carrying token per match, and its parser.
# ---------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # a group name of _TOKEN: ID SECTION STR NUM ARROW, punctuation, EOF
    value: str
    offset: int  # of the token's first character; _position turns it into line/column


# One match per token: the whitespace and comments in front of it, then the
# token.  No two token alternatives start on the same character, so their
# order changes no token; ID, the commonest, comes first.  EOF ends the scan,
# and ERROR is any character that starts no token, so every match succeeds
# at once and the skipped prefix never backtracks.  _token_regex fills in
# %(odd)s and %(digits)s.
_TOKEN = (
    r"[ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/)[ \t\r\n]*)*"
    r"(?:(?P<ID>[^\W\d%(odd)s]\w*)"
    r"|(?P<SECTION>\.\w*)"
    r'|(?P<STR>"[^"\\]*(?:\\["\\][^"\\]*)*")'
    r"|(?P<ARROW>->)"
    r"|(?P<LBRACE>\{)|(?P<RBRACE>\})|(?P<LBRACK>\[)|(?P<RBRACK>\])"
    r"|(?P<COMMA>,)|(?P<COLON>:)|(?P<STAR>\*)|(?P<EQUALS>=)"
    r"|(?P<NUM>[\d%(digits)s]+)"
    r"|(?P<EOF>\Z)"
    r"|(?P<ERROR>.))"
)
_STRING_BODY = re.compile(r'[^"\\]*(?:\\["\\][^"\\]*)*')


def _token_regex(text: str) -> re.Pattern:
    """The token regex for `text`: a NUM is a run of str.isdigit characters,
    an ID starts with a letter or '_'.  Outside ASCII, \\d misses digits such
    as '²' and \\w holds for every numeral, so the text's numerals that are
    not letters or decimal digits join NUM if digits and never start an ID."""
    odd = "" if text.isascii() else "".join(
        sorted(c for c in set(text) if c.isnumeric() and not (c.isdecimal() or c.isalpha()))
    )
    digits = "".join(c for c in odd if c.isdigit())
    return re.compile(_TOKEN % {"odd": re.escape(odd), "digits": re.escape(digits)}, re.DOTALL)


def _position(text: str, offset: int) -> Tuple[int, int]:
    """(line, column) of `offset` in `text`, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lex_error(text: str, i: int) -> ParseError:
    """The error at `i`, where no token starts."""
    at, message = i, f"unexpected character {text[i]!r}"
    if text.startswith("/*", i):
        message = "unterminated comment"
    elif text[i] == '"':
        j = _STRING_BODY.match(text, i + 1).end()
        if j == len(text):
            message = "unterminated string"
        else:
            at = j
            message = "dangling escape" if j + 1 == len(text) else f"unknown escape \\{text[j + 1]}"
    return ParseError(message, *_position(text, at))


def _tokenize(text: str) -> List[_Token]:
    """The tokens of `text`, ending in EOF; raises the first lexical error."""
    make = tuple.__new__  # skips _Token's Python-level __new__
    tokens = [
        make(_Token, (m.lastgroup, m[m.lastindex], m.start(m.lastindex)))
        for m in _token_regex(text).finditer(text)
    ]
    for i, (kind, value, offset) in enumerate(tokens):
        if kind == "SECTION":
            if value == ".":
                raise ParseError("lone '.'", *_position(text, offset))
            tokens[i] = _Token(kind, value[1:], offset)
        elif kind == "STR":
            tokens[i] = _Token(kind, re.sub(r"\\(.)", r"\1", value[1:-1], flags=re.DOTALL), offset)
        elif kind == "ERROR":
            raise _lex_error(text, offset)
        elif kind == "EOF":
            # after a match that ends at the end of the text, finditer
            # matches EOF once more, empty
            del tokens[i + 1 :]
            break
    return tokens


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)

    def fail(self, message: str, tok: _Token):
        raise ParseError(message, *_position(self.text, tok.offset)) from None

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Document:
        tokens = self.tokens
        if tokens[0].kind not in ("SECTION", "EOF"):
            self.fail(f"expected SECTION, found {tokens[0].value!r}", tokens[0])
        heads = [i for i, tok in enumerate(tokens) if tok.kind == "SECTION"]
        ends = heads[1:] + [len(tokens) - 1]
        sections = [(tokens[i], tokens[i + 1 : j]) for i, j in zip(heads, ends)]

        doc_type: Optional[str] = None
        for head, body in sections:
            if head.value == "type":
                if doc_type is not None:
                    self.fail("multiple .type sections", head)
                if len(body) != 1 or body[0].kind != "ID" or body[0].value not in ("LPN", "LTS"):
                    self.fail(".type must be LPN or LTS", head)
                doc_type = body[0].value
        if doc_type is None:
            self.fail("missing .type section", tokens[0])

        seen: Dict[str, _Token] = {}
        for head, _ in sections:
            if head.value == "type":
                continue
            if head.value in seen:
                self.fail(f"duplicate .{head.value} section", head)
            seen[head.value] = head

        if doc_type == "LPN":
            return self._build_net(sections)
        return self._build_lts(sections)

    # -- shared helpers -----------------------------------------------------

    def _string_section(self, body: List[_Token], head: _Token) -> str:
        if len(body) != 1 or body[0].kind != "STR":
            self.fail(f".{head.value} takes one quoted string", head)
        return body[0].value

    def _ids_with_attrs(self, body: List[_Token], head: _Token):
        """Parse `id [attr, attr=...]...` lists; returns [(token, attrs)]."""
        out = []
        k = 0
        while k < len(body):
            tok = body[k]
            if tok.kind != "ID":
                self.fail(f"expected an identifier in .{head.value}", tok)
            k += 1
            attrs: List[Tuple[_Token, Optional[_Token]]] = []
            if k < len(body) and body[k].kind == "LBRACK":
                k += 1
                while True:
                    if k >= len(body):
                        self.fail("unterminated attribute list", tok)
                    name = body[k]
                    if name.kind != "ID":
                        self.fail("expected an attribute name", name)
                    k += 1
                    value = None
                    if k < len(body) and body[k].kind == "EQUALS":
                        k += 1
                        if k >= len(body) or body[k].kind not in ("STR", "NUM", "ID"):
                            self.fail("expected an attribute value", name)
                        value = body[k]
                        k += 1
                    attrs.append((name, value))
                    if k < len(body) and body[k].kind == "COMMA":
                        k += 1
                        continue
                    if k < len(body) and body[k].kind == "RBRACK":
                        k += 1
                        break
                    self.fail("expected ',' or ']' in attribute list", name)
            out.append((tok, attrs))
        return out

    def _multiset(self, body: List[_Token], k: int, head: _Token):
        """Parse a `{ [n *] id, ... }` multiset starting at body[k]."""
        if k >= len(body) or body[k].kind != "LBRACE":
            self.fail("expected '{'", body[k] if k < len(body) else head)
        k += 1
        counts: Dict[str, int] = {}
        order: List[str] = []
        if k < len(body) and body[k].kind == "RBRACE":
            return counts, order, k + 1
        while True:
            mult = 1
            if k < len(body) and body[k].kind == "NUM":
                if not body[k].value.isdecimal():  # NUM also takes digits like '²'
                    self.fail(f"bad multiplicity {body[k].value!r}", body[k])
                mult = int(body[k].value)
                if mult == 0:
                    self.fail("zero multiplicity", body[k])
                k += 1
                if k >= len(body) or body[k].kind != "STAR":
                    self.fail("expected '*' after a multiplicity", body[k - 1])
                k += 1
            if k >= len(body) or body[k].kind != "ID":
                self.fail("expected a place name", body[k] if k < len(body) else head)
            name = body[k].value
            if name not in counts:
                counts[name] = 0
                order.append(name)
            counts[name] += mult
            k += 1
            if k < len(body) and body[k].kind == "COMMA":
                k += 1
                continue
            if k < len(body) and body[k].kind == "RBRACE":
                return counts, order, k + 1
            self.fail("expected ',' or '}' in multiset", body[k] if k < len(body) else head)

    # -- LPN ----------------------------------------------------------------

    def _build_net(self, sections) -> Document:
        net = PetriNet()
        place_toks: List[_Token] = []
        transition_entries = []
        flow_section = None
        marking_section = None
        for head, body in sections:
            if head.value == "type":
                continue
            elif head.value == "name":
                net.name = self._string_section(body, head)
            elif head.value == "description":
                net.description = self._string_section(body, head)
            elif head.value == "places":
                for tok, attrs in self._ids_with_attrs(body, head):
                    if attrs:
                        self.fail("places take no attributes", tok)
                    place_toks.append(tok)
            elif head.value == "transitions":
                transition_entries = self._ids_with_attrs(body, head)
            elif head.value == "flows":
                flow_section = (head, body)
            elif head.value == "initial_marking":
                marking_section = (head, body)
            else:
                self.fail(f"unknown section .{head.value} in an LPN file", head)

        for tok in place_toks:
            try:
                net.add_place(tok.value)
            except AptError as err:
                self.fail(str(err), tok)
        for tok, attrs in transition_entries:
            label = None
            for name, value in attrs:
                if name.value != "label" or value is None or value.kind != "STR":
                    self.fail("transitions only take label=\"...\"", name)
                label = value.value
            try:
                net.add_transition(tok.value, label=label)
            except AptError as err:
                self.fail(str(err), tok)

        if flow_section is not None:
            head, body = flow_section
            defined = set()
            k = 0
            while k < len(body):
                tok = body[k]
                if tok.kind != "ID":
                    self.fail("expected a transition name", tok)
                t = tok.value
                if t not in net.transitions:
                    self.fail(f"unknown transition {t!r}", tok)
                if t in defined:
                    self.fail(f"duplicate flow definition for {t!r}", tok)
                defined.add(t)
                k += 1
                if k >= len(body) or body[k].kind != "COLON":
                    self.fail("expected ':'", tok)
                k += 1
                pre, pre_order, k = self._multiset(body, k, head)
                if k >= len(body) or body[k].kind != "ARROW":
                    self.fail("expected '->'", tok)
                k += 1
                post, post_order, k = self._multiset(body, k, head)
                for name in pre_order:
                    if name not in net.places:
                        self.fail(f"unknown place {name!r}", tok)
                    net.add_flow(name, t, pre[name])
                for name in post_order:
                    if name not in net.places:
                        self.fail(f"unknown place {name!r}", tok)
                    net.add_flow(t, name, post[name])

        if marking_section is not None:
            head, body = marking_section
            counts, order, k = self._multiset(body, 0, head)
            if k != len(body):
                self.fail("trailing tokens after the initial marking", body[k])
            for name in order:
                if name not in net.places:
                    self.fail(f"unknown place {name!r} in the initial marking", head)
                net.set_tokens(name, counts[name])
        return Document(kind="LPN", net=net)

    # -- LTS ----------------------------------------------------------------

    def _build_lts(self, sections) -> Document:
        lts = Lts()
        state_entries = []
        label_entries = []
        arc_section = None
        for head, body in sections:
            if head.value == "type":
                continue
            elif head.value == "name":
                lts.name = self._string_section(body, head)
            elif head.value == "description":
                lts.description = self._string_section(body, head)
            elif head.value == "states":
                state_entries = self._ids_with_attrs(body, head)
            elif head.value == "labels":
                label_entries = self._ids_with_attrs(body, head)
            elif head.value == "arcs":
                arc_section = (head, body)
            else:
                self.fail(f"unknown section .{head.value} in an LTS file", head)

        initial_seen = None
        for tok, attrs in state_entries:
            initial = False
            for name, value in attrs:
                if name.value != "initial" or value is not None:
                    self.fail("states only take the bare attribute 'initial'", name)
                initial = True
            if initial:
                if initial_seen is not None:
                    self.fail(f"second [initial] state (first was {initial_seen!r})", tok)
                initial_seen = tok.value
            try:
                lts.add_state(tok.value, initial=initial)
            except AptError as err:
                self.fail(str(err), tok)
        if initial_seen is None:
            self.fail("no state is marked [initial]", sections[0][0])

        for tok, attrs in label_entries:
            location = None
            for name, value in attrs:
                if name.value != "location" or value is None or value.kind != "STR":
                    self.fail("labels only take location=\"...\"", name)
                location = value.value
            try:
                lts.add_label(tok.value, location=location)
            except AptError as err:
                self.fail(str(err), tok)

        if arc_section is not None:
            head, body = arc_section
            if len(body) % 3 != 0:
                self.fail(".arcs needs 'source label target' triples", head)
            triples = iter(body)
            for src, lab, tgt in zip(triples, triples, triples):
                if src.kind != "ID" or lab.kind != "ID" or tgt.kind != "ID":
                    bad = next(tok for tok in (src, lab, tgt) if tok.kind != "ID")
                    self.fail("expected an identifier in .arcs", bad)
                try:
                    lts.add_arc(src.value, lab.value, tgt.value)
                except AptError as err:
                    self.fail(str(err), src)
        return Document(kind="LTS", lts=lts)


def parse(text: str) -> Document:
    """Parse a document; all errors carry a line/column position."""
    return _Parser(text).parse()
