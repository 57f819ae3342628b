"""Reader and writer for the plain-text net/transition-system file format.

A document is a `.type LPN` (labelled Petri net) or `.type LTS` file made of
dot-keyword sections in any order; `/*..*/` and `//` comments are allowed
between any two tokens.  The lexer reads a document with one `findall`, a
match per token and the whitespace and comments before it, into parallel
lists of token kinds and values.  No token keeps its position: an error
scans the text again up to its token for the line and column.  The parser
splits the sections in one scan over the kinds, and appends the arcs of an
LTS at once after checking all of them.  The writer emits a canonical form:
parsing its output yields a structurally identical model, printing is
idempotent, and a name that would not read back as one identifier is
refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from .common import AptError, ParseError
from .lts import Lts
from .petri import Marking, PetriNet


@dataclass
class Document:
    kind: str  # "LPN" | "LTS"
    net: Optional[PetriNet] = None
    lts: Optional[Lts] = None
    state_markings: Optional[Dict[str, Marking]] = None


# ---------------------------------------------------------------------------
# Lexer.
# ---------------------------------------------------------------------------


# One match per token: the whitespace and comments in front of it, then the
# token in one of three groups, ID, NUM or any other token, whose kind its
# first character gives (_KINDS).  No two token alternatives start on the
# same character, so their order changes no token; ID, the commonest, comes
# first.  \Z (EOF, every group empty) ends the scan, and the last
# alternative takes a character that starts no token, so every match
# succeeds at once and the skipped prefix never backtracks.  _token_regex
# fills in %(odd)s and %(digits)s.
_TOKEN = (
    r"[ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/)[ \t\r\n]*)*"
    r"(?:([^\W\d%(odd)s]\w*)"
    r"|([\d%(digits)s]+)"
    r'|(\.\w*|"[^"\\]*(?:\\["\\][^"\\]*)*"|->|[{}\[\],:*=]|\Z|.))'
)
_KINDS = {".": "SECTION", '"': "STR", "-": "ARROW", "{": "LBRACE", "}": "RBRACE", "[": "LBRACK",
          "]": "RBRACK", ",": "COMMA", ":": "COLON", "*": "STAR", "=": "EQUALS", "": "EOF"}
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


def _offset(text: str, k: int) -> int:
    """The offset of token k of `text`, which the lexer does not keep: the
    text is scanned again up to match k."""
    match = next(islice(_token_regex(text).finditer(text), k, None))
    return match.start(match.lastindex)


def _position(text: str, offset: int) -> Tuple[int, int]:
    """(line, column) of `offset` in `text`, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lex_error(text: str, i: int) -> ParseError:
    """The error at `i`, where no token starts or a lone '.' stands."""
    at, message = i, f"unexpected character {text[i]!r}"
    if text[i] == ".":
        message = "lone '.'"
    elif text.startswith("/*", i):
        message = "unterminated comment"
    elif text[i] == '"':
        j = _STRING_BODY.match(text, i + 1).end()
        if j == len(text):
            message = "unterminated string"
        else:
            at = j
            message = "dangling escape" if j + 1 == len(text) else f"unknown escape \\{text[j + 1]}"
    return ParseError(message, *_position(text, at))


def _tokenize(text: str) -> Tuple[List[str], List[str]]:
    """The kinds and values of the tokens of `text`, ending in EOF; raises
    the first lexical error."""
    kinds, values = [], []
    add_kind, add_value = kinds.append, values.append
    for ident, num, other in _token_regex(text).findall(text):
        if ident:
            add_kind("ID")
            add_value(ident)
            continue
        kind = "NUM" if num else _KINDS.get(other[:1], "ERROR")
        if kind == "ERROR" or other in ('"', "-", "."):  # no string, arrow or section
            raise _lex_error(text, _offset(text, len(kinds)))
        if kind == "SECTION":
            other = other[1:]
        elif kind == "STR":
            other = re.sub(r"\\(.)", r"\1", other[1:-1], flags=re.DOTALL)
        add_kind(kind)
        add_value(num or other)
        if kind == "EOF":  # findall matches it once more after a match ending the text
            break
    return kinds, values


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


class _Parser:
    """A parser over the token lists of one text; token k is kinds[k] and
    values[k], and a section is (h, end): its head h and the body h+1..end-1."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.values = _tokenize(text)

    def fail(self, message: str, k: int):
        raise ParseError(message, *_position(self.text, _offset(self.text, k))) from None

    def _add(self, k: int, add, *args, **kwargs) -> None:
        """add(*args, **kwargs), failing at token k on an AptError."""
        try:
            add(*args, **kwargs)
        except AptError as err:
            self.fail(str(err), k)

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Document:
        kinds, values = self.kinds, self.values
        if kinds[0] not in ("SECTION", "EOF"):
            self.fail(f"expected SECTION, found {values[0]!r}", 0)
        heads = [k for k, kind in enumerate(kinds) if kind == "SECTION"]
        sections = list(zip(heads, heads[1:] + [len(kinds) - 1]))

        doc_type: Optional[str] = None
        for h, end in sections:
            if values[h] == "type":
                if doc_type is not None:
                    self.fail("multiple .type sections", h)
                if end - h != 2 or kinds[h + 1] != "ID" or values[h + 1] not in ("LPN", "LTS"):
                    self.fail(".type must be LPN or LTS", h)
                doc_type = values[h + 1]
        if doc_type is None:
            self.fail("missing .type section", 0)

        seen = set()  # holds one "type" at most, checked above
        for h, _ in sections:
            if values[h] in seen:
                self.fail(f"duplicate .{values[h]} section", h)
            seen.add(values[h])

        if doc_type == "LPN":
            return self._build_net(sections)
        return self._build_lts(sections)

    # -- shared helpers -----------------------------------------------------

    def _string_section(self, h: int, end: int) -> str:
        if end - h != 2 or self.kinds[h + 1] != "STR":
            self.fail(f".{self.values[h]} takes one quoted string", h)
        return self.values[h + 1]

    def _ids_with_attrs(self, h: int, end: int):
        """Parse `id [attr, attr=...]...` lists: [(k, [(name k, value k or None)])]."""
        kinds = self.kinds
        out = []
        k = h + 1
        while k < end:
            tok = k
            if kinds[k] != "ID":
                self.fail(f"expected an identifier in .{self.values[h]}", k)
            k += 1
            attrs: List[Tuple[int, Optional[int]]] = []
            if k < end and kinds[k] == "LBRACK":
                k += 1
                while True:
                    if k >= end:
                        self.fail("unterminated attribute list", tok)
                    name = k
                    if kinds[k] != "ID":
                        self.fail("expected an attribute name", name)
                    k += 1
                    value = None
                    if k < end and kinds[k] == "EQUALS":
                        k += 1
                        if k >= end or kinds[k] not in ("STR", "NUM", "ID"):
                            self.fail("expected an attribute value", name)
                        value = k
                        k += 1
                    attrs.append((name, value))
                    if k >= end or kinds[k] not in ("COMMA", "RBRACK"):
                        self.fail("expected ',' or ']' in attribute list", name)
                    k += 1
                    if kinds[k - 1] == "RBRACK":
                        break
            out.append((tok, attrs))
        return out

    def _multiset(self, k: int, end: int, h: int):
        """Parse a `{ [n *] id, ... }` multiset starting at token k."""
        kinds, values = self.kinds, self.values
        if k >= end or kinds[k] != "LBRACE":
            self.fail("expected '{'", k if k < end else h)
        k += 1
        counts: Dict[str, int] = {}
        order: List[str] = []
        if k < end and kinds[k] == "RBRACE":
            return counts, order, k + 1
        while True:
            mult = 1
            if k < end and kinds[k] == "NUM":
                if not values[k].isdecimal():  # NUM also takes digits like '²'
                    self.fail(f"bad multiplicity {values[k]!r}", k)
                mult = int(values[k])
                if mult == 0:
                    self.fail("zero multiplicity", k)
                k += 1
                if k >= end or kinds[k] != "STAR":
                    self.fail("expected '*' after a multiplicity", k - 1)
                k += 1
            if k >= end or kinds[k] != "ID":
                self.fail("expected a place name", k if k < end else h)
            name = values[k]
            if name not in counts:
                counts[name] = 0
                order.append(name)
            counts[name] += mult
            k += 1
            if k < end and kinds[k] == "RBRACE":
                return counts, order, k + 1
            if k >= end or kinds[k] != "COMMA":
                self.fail("expected ',' or '}' in multiset", k if k < end else h)
            k += 1

    # -- LPN ----------------------------------------------------------------

    def _build_net(self, sections) -> Document:
        kinds, values = self.kinds, self.values
        net = PetriNet()
        place_toks: List[int] = []
        transition_entries = []
        flow_section = marking_section = None
        for h, end in sections:
            if values[h] == "type":
                continue
            elif values[h] in ("name", "description"):
                setattr(net, values[h], self._string_section(h, end))
            elif values[h] == "places":
                for tok, attrs in self._ids_with_attrs(h, end):
                    if attrs:
                        self.fail("places take no attributes", tok)
                    place_toks.append(tok)
            elif values[h] == "transitions":
                transition_entries = self._ids_with_attrs(h, end)
            elif values[h] == "flows":
                flow_section = (h, end)
            elif values[h] == "initial_marking":
                marking_section = (h, end)
            else:
                self.fail(f"unknown section .{values[h]} in an LPN file", h)

        for tok in place_toks:
            self._add(tok, net.add_place, values[tok])
        for tok, attrs in transition_entries:
            label = None
            for name, value in attrs:
                if values[name] != "label" or value is None or kinds[value] != "STR":
                    self.fail("transitions only take label=\"...\"", name)
                label = values[value]
            self._add(tok, net.add_transition, values[tok], label=label)

        if flow_section is not None:
            h, end = flow_section
            defined = set()
            k = h + 1
            while k < end:
                tok = k
                if kinds[tok] != "ID":
                    self.fail("expected a transition name", tok)
                t = values[tok]
                if t not in net.transitions:
                    self.fail(f"unknown transition {t!r}", tok)
                if t in defined:
                    self.fail(f"duplicate flow definition for {t!r}", tok)
                defined.add(t)
                k += 1
                if k >= end or kinds[k] != "COLON":
                    self.fail("expected ':'", tok)
                k += 1
                pre, pre_order, k = self._multiset(k, end, h)
                if k >= end or kinds[k] != "ARROW":
                    self.fail("expected '->'", tok)
                k += 1
                post, post_order, k = self._multiset(k, end, h)
                for name in pre_order:
                    if name not in net.places:
                        self.fail(f"unknown place {name!r}", tok)
                    net.add_flow(name, t, pre[name])
                for name in post_order:
                    if name not in net.places:
                        self.fail(f"unknown place {name!r}", tok)
                    net.add_flow(t, name, post[name])

        if marking_section is not None:
            h, end = marking_section
            counts, order, k = self._multiset(h + 1, end, h)
            if k != end:
                self.fail("trailing tokens after the initial marking", k)
            for name in order:
                if name not in net.places:
                    self.fail(f"unknown place {name!r} in the initial marking", h)
                net.set_tokens(name, counts[name])
        return Document(kind="LPN", net=net)

    # -- LTS ----------------------------------------------------------------

    def _build_lts(self, sections) -> Document:
        kinds, values = self.kinds, self.values
        lts = Lts()
        state_entries = []
        label_entries = []
        arc_section = None
        for h, end in sections:
            if values[h] == "type":
                continue
            elif values[h] in ("name", "description"):
                setattr(lts, values[h], self._string_section(h, end))
            elif values[h] == "states":
                state_entries = self._ids_with_attrs(h, end)
            elif values[h] == "labels":
                label_entries = self._ids_with_attrs(h, end)
            elif values[h] == "arcs":
                arc_section = (h, end)
            else:
                self.fail(f"unknown section .{values[h]} in an LTS file", h)

        initial_seen = None
        for tok, attrs in state_entries:
            initial = False
            for name, value in attrs:
                if values[name] != "initial" or value is not None:
                    self.fail("states only take the bare attribute 'initial'", name)
                initial = True
            if initial:
                if initial_seen is not None:
                    self.fail(f"second [initial] state (first was {initial_seen!r})", tok)
                initial_seen = values[tok]
            self._add(tok, lts.add_state, values[tok], initial=initial)
        if initial_seen is None:
            self.fail("no state is marked [initial]", sections[0][0])

        for tok, attrs in label_entries:
            location = None
            for name, value in attrs:
                if values[name] != "location" or value is None or kinds[value] != "STR":
                    self.fail("labels only take location=\"...\"", name)
                location = values[value]
            self._add(tok, lts.add_label, values[tok], location=location)

        if arc_section is not None:
            h, end = arc_section
            if (end - h - 1) % 3 != 0:
                self.fail(".arcs needs 'source label target' triples", h)
            body = values[h + 1 : end]
            sources, labels, targets = body[0::3], body[1::3], body[2::3]
            states = set(lts.states)
            if kinds[h + 1 : end].count("ID") < len(body) or not (
                states.issuperset(sources) and states.issuperset(targets) and set(lts.labels).issuperset(labels)
            ):
                # a bad triple: add_arc on each in turn raises at the first
                for k in range(h + 1, end, 3):
                    bad = next((j for j in range(k, k + 3) if kinds[j] != "ID"), None)
                    if bad is not None:
                        self.fail("expected an identifier in .arcs", bad)
                    self._add(k, lts.add_arc, *values[k : k + 3])
            lts._append_arcs(zip(sources, labels, targets))
        return Document(kind="LTS", lts=lts)


def parse(text: str) -> Document:
    """Parse a document; all errors carry a line/column position."""
    return _Parser(text).parse()


def parse_net(text: str) -> PetriNet:
    doc = parse(text)
    if doc.kind != "LPN":
        raise AptError("expected an LPN document")
    return doc.net


def parse_lts(text: str) -> Lts:
    doc = parse(text)
    if doc.kind != "LTS":
        raise AptError("expected an LTS document")
    return doc.lts


# ---------------------------------------------------------------------------
# Writer.
# ---------------------------------------------------------------------------


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _multiset_text(counts: List[Tuple[str, int]]) -> str:
    parts = []
    for name, count in counts:
        if count == 1:
            parts.append(name)
        elif count > 1:
            parts.append(f"{count} * {name}")
    return "{ " + ", ".join(parts) + " }" if parts else "{ }"


# Names joined by single spaces, each an ASCII identifier.
_ASCII_IDS = re.compile(r"[A-Za-z_]\w*(?: [A-Za-z_]\w*)*", re.ASCII)


def _check_names(what: str, names: Sequence[str]) -> None:
    """Raise AptError naming the first of `names` that the lexer would not
    read back as exactly one ID token."""
    joined = " ".join(names)
    if joined.count(" ") == len(names) - 1 and _ASCII_IDS.fullmatch(joined):
        return
    for name in names:
        try:
            kinds, values = _tokenize(name)
        except ParseError:
            kinds = values = []
        if kinds != ["ID", "EOF"] or values[0] != name:
            raise AptError(f"cannot write {what} {name!r}: it would not read back as one identifier")


def render(doc: Document) -> str:
    """Canonical text form; `parse(render(d))` is structurally identical to
    `d` and rendering is idempotent.  A name that would not read back as an
    identifier raises AptError."""
    if doc.kind == "LPN":
        return _render_net(doc.net)
    return _render_lts(doc.lts, doc.state_markings)


def _render_net(net: PetriNet) -> str:
    _check_names("place", net.places)
    _check_names("transition", net.transitions)
    lines = [f".name {_quote(net.name)}"]
    if net.description:
        lines.append(f".description {_quote(net.description)}")
    lines.append(".type LPN")
    lines.append(".places")
    if net.places:
        lines.append(" ".join(net.places))
    lines.append(".transitions")
    if net.transitions:
        entries = []
        for t in net.transitions:
            label = net.label(t)
            entries.append(t if label == t else f'{t}[label={_quote(label)}]')
        lines.append(" ".join(entries))
    lines.append(".flows")
    for t in net.transitions:
        pre = [(p, net.flow(p, t)) for p in net.places if net.flow(p, t)]
        post = [(p, net.flow(t, p)) for p in net.places if net.flow(t, p)]
        if pre or post:
            lines.append(f"{t}: {_multiset_text(pre)} -> {_multiset_text(post)}")
    marking = [(p, c) for p, c in net.initial_marking().items() if c]
    lines.append(f".initial_marking {_multiset_text(marking)}")
    return "\n".join(lines) + "\n"


def _render_lts(lts: Lts, markings: Optional[Dict[str, Marking]] = None) -> str:
    _check_names("state", lts.states)
    _check_names("label", lts.labels)
    # one marking-comment template per place tuple; the checked names hold
    # no brace, and OMEGA formats as its repr
    templates = {id(m.places): m.places for m in (markings or {}).values()}
    for key, places in templates.items():
        _check_names("place", places)
        templates[key] = "/* [ " + " ".join(f"[{p}:{{}}]" for p in places) + " ] */"
    lines = [f".name {_quote(lts.name)}"]
    if lts.description:
        lines.append(f".description {_quote(lts.description)}")
    lines.append(".type LTS")
    lines.append(".states")
    for s in lts.states:
        entry = f"{s}[initial]" if s == lts.initial else s
        if markings and s in markings:
            marking = markings[s]
            entry = f"{entry} {templates[id(marking.places)].format(*marking.counts)}"
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
# DOT export.
# ---------------------------------------------------------------------------


def to_dot(doc: Document) -> str:
    """GraphViz rendering: states/places as circles, transitions as boxes."""
    if doc.kind == "LTS":
        lts = doc.lts
        lines = ["digraph lts {", "  node [shape=circle];"]
        for s in lts.states:
            shape = ' [style=bold]' if s == lts.initial else ""
            lines.append(f'  "{s}"{shape};')
        for arc in lts.arcs:
            lines.append(f'  "{arc.source}" -> "{arc.target}" [label="{arc.label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    net = doc.net
    lines = ["digraph net {"]
    marking = net.initial_marking()
    for p in net.places:
        tokens = marking.get(p)
        label = f"{p}\\n{tokens}" if tokens else p
        lines.append(f'  "{p}" [shape=circle, label="{label}"];')
    for t in net.transitions:
        lines.append(f'  "{t}" [shape=box];')
    for (src, tgt), w in net.flows.items():
        suffix = f' [label="{w}"]' if w > 1 else ""
        lines.append(f'  "{src}" -> "{tgt}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"
