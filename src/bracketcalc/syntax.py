"""Concrete syntax for bracket worms and strictly positive bracket formulas.

Surface syntax is plain ASCII: `(` `)` for brackets, `T` for the top worm,
`&` for conjunction, `p<digits>` for variables, whitespace ignored.  A
bracket group with empty body denotes the top worm, and a trailing top body
is suppressed when printing, so parse(print(x)) == x on canonical output.

Conjunction under a bracket needs explicit grouping, written `[` formula `]`;
it only ever appears in machine-produced derivation text.

Worms and formulas are hash-consed: equal values are one object, so
equality and hashing are identity.

Diamond labels are worms, and many formulas repeat a few of them: the
formula parser and printer keep a label table for one call, or for all the
calls that share it, as the certificate codec does for one certificate.
"""

from __future__ import annotations

import re

from ._intern import Interned, lookup, store


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


class BracketWorm(Interned):
    """A finite sequence of bracket worms; the empty sequence is top."""

    __slots__ = ("entries", "_o")

    def __new__(cls, entries: tuple = ()):
        key = (cls, entries)
        node = lookup(key)
        if node is None:
            node = store(key, object.__new__(cls))
            node.entries = entries
            node._o = None  # the order type, see worms.o_star
        return node

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return "BracketWorm(%s)" % print_worm(self)


TOP_WORM = BracketWorm()


class BracketFormula(Interned):
    __slots__ = ()


class Top(BracketFormula):
    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Top"


TOP = Top()


class Var(BracketFormula):
    __slots__ = ("index",)

    def __new__(cls, index: int):
        if index < 1:
            raise ValueError("variable index must be positive")
        key = (cls, index)
        node = lookup(key)
        if node is None:
            node = store(key, object.__new__(cls))
            node.index = index
        return node

    def __repr__(self):
        return "Var(%d)" % self.index


class Conj(BracketFormula):
    __slots__ = ("left", "right")

    def __new__(cls, left: BracketFormula, right: BracketFormula):
        key = (cls, left, right)
        node = lookup(key)
        if node is None:
            node = store(key, object.__new__(cls))
            node.left = left
            node.right = right
        return node

    def __repr__(self):
        return "Conj(%r, %r)" % (self.left, self.right)


class Diamond(BracketFormula):
    __slots__ = ("label", "body")

    def __new__(cls, label: BracketWorm, body: BracketFormula):
        key = (cls, label, body)
        node = lookup(key)
        if node is None:
            node = store(key, object.__new__(cls))
            node.label = label
            node.body = body
        return node

    def __repr__(self):
        return "Diamond(%r, %r)" % (self.label, self.body)


# --- parsing ---------------------------------------------------------------

_SPACE = re.compile(r"\s*")  # \s is str.isspace
_DECIMALS = re.compile(r"\d*")  # \d is str.isdecimal, the digits int() reads


class Scanner:
    """Text and a position in it, for the worm, formula and ordinal parsers.
    Whitespace between tokens is skipped; errors carry the offset reached."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def next(self) -> str:
        """Skip whitespace and return the next character, "" at the end."""
        text, pos = self.text, self.pos
        if text[pos:pos + 1].isspace():
            pos = self.pos = _SPACE.match(text, pos).end()
        return text[pos:pos + 1]

    def fail(self, message: str):
        raise ParseError(message, self.pos)

    def expect(self, ch: str):
        if self.next() != ch:
            self.fail("expected %r" % ch)
        self.pos += 1

    def number(self, what: str) -> int:
        """The decimal run right at the position, without skipping space."""
        start = self.pos
        end = self.pos = _DECIMALS.match(self.text, start).end()
        if end == start:
            self.fail("expected " + what)
        try:
            return int(self.text[start:end])
        except ValueError:  # more digits than int() converts
            raise ParseError("number too long", start) from None

    def finish(self, value):
        if self.next():
            self.fail("trailing input")
        return value


def _worm_body(s: Scanner) -> BracketWorm:
    """`T` or a run of groups; a group is `()` (top) or `(` body `)`."""
    stack = []  # the entries of each enclosing body, innermost last
    entries = []  # the entries of the innermost body
    while True:
        c = s.next()
        if c == "(":
            s.pos += 1
            if s.next() == ")":
                s.pos += 1
                entries.append(TOP_WORM)
            else:
                stack.append(entries)
                entries = []
            continue
        if entries:
            w = BracketWorm(tuple(entries))
        elif c == "T":
            s.pos += 1
            w = TOP_WORM
        else:
            s.fail("expected worm")
        # w is a whole body: it ends the worm, or the group around it
        if not stack:
            return w
        s.expect(")")
        entries = stack.pop()
        entries.append(w)


def _group(s: Scanner) -> BracketWorm:
    s.pos += 1
    w = TOP_WORM if s.next() == ")" else _worm_body(s)
    s.expect(")")
    return w


# a label group nested at most 16 deep and without whitespace, read in one
# match; _formula_body parses any other with _group
_GROUP = r"\(\)"
for _ in range(15):
    _GROUP = r"\((?:%s)*\)" % _GROUP
_GROUP = re.compile(_GROUP)


def _formula_body(s: Scanner, labels: dict) -> BracketFormula:
    """Atoms joined by `&` to the left.  An atom is `T`, `p<digits>`,
    `[` formula `]`, or a group followed by an optional atom.

    labels maps the text of each label group read so far to its worm.  A
    group that _GROUP matches costs one match and one lookup when met
    again; a deeper or spaced-out one is parsed by _group each time.  Other
    tokens are read off the text, skipping whitespace in one _SPACE match."""
    text = s.text
    pos = s.pos
    # innermost last: the label of each diamond whose body atom is being
    # read and, for each open `[`, the conjunction read before it (or None)
    stack = []
    left = None  # the conjunction read so far in the innermost formula
    while True:
        c = text[pos:pos + 1]
        if c.isspace():
            pos = _SPACE.match(text, pos).end()
            c = text[pos:pos + 1]
        if c == "(":
            m = _GROUP.match(text, pos)
            if m is None:  # deeper than _GROUP reads, spaced out, or unclosed
                s.pos = pos
                label = _group(s)
                pos = s.pos
            else:
                end = m.end()
                key = text[pos:end]
                label = labels.get(key)
                if label is None:
                    s.pos = pos
                    label = labels[key] = _group(s)
                pos = end
            stack.append(label)
            continue
        if c == "T":
            pos += 1
            f = TOP
        elif c == "[":
            pos += 1
            stack.append(left)
            left = None
            continue
        elif c == "p":
            s.pos = pos + 1
            index = s.number("variable index")
            if index < 1:
                raise ParseError("variable index must be positive", pos + 1)
            pos = s.pos
            f = Var(index)
        elif stack and stack[-1].__class__ is BracketWorm:
            f = TOP  # a group without a body atom
        else:
            s.pos = pos
            s.fail("expected formula")
        # f is a whole atom; `]` makes the bracketed formula one as well
        while True:
            while stack and stack[-1].__class__ is BracketWorm:
                f = Diamond(stack.pop(), f)
            left = f if left is None else Conj(left, f)
            c = text[pos:pos + 1]
            if c.isspace():
                pos = _SPACE.match(text, pos).end()
                c = text[pos:pos + 1]
            if c == "&":
                pos += 1
                break
            s.pos = pos
            if not stack:
                return left
            s.expect("]")
            pos = s.pos
            f = left
            left = stack.pop()


def parse_worm(text: str) -> BracketWorm:
    s = Scanner(text)
    return s.finish(_worm_body(s))


def parse_formula(text: str, labels: dict | None = None) -> BracketFormula:
    """The formula of text.  Each diamond label met again is looked up in
    labels rather than parsed again; pass one dict to share the labels of
    several texts, as the certificate decoder does.  A new one by default."""
    s = Scanner(text)
    return s.finish(_formula_body(s, {} if labels is None else labels))


# --- printing --------------------------------------------------------------


def _entry_text(w: BracketWorm) -> str:
    """The text "(...)" of w as one entry, built with an explicit stack so
    that nesting depth is not bounded by the recursion limit."""
    out: list = []
    emit = out.append
    stack = [w]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        e = pop()
        if e.__class__ is str:
            emit(e)
            continue
        # a chain of single entries opens and closes as one run
        opens = 1
        entries = e.entries
        while len(entries) == 1:
            opens += 1
            entries = entries[0].entries
        if entries:
            emit("(" * opens)
            push(")" * opens)
            extend(reversed(entries))
        elif opens == 1:
            emit("()")
        else:
            emit("(" * opens + ")" * opens)
    return "".join(out)


def print_worm(w: BracketWorm) -> str:
    if not w.entries:
        return "T"
    # step traces repeat a few distinct entries thousands of times: each
    # distinct entry is emitted once per call.  Nested entries are not
    # memoised, since their texts would cost quadratic space on deep chains
    texts = dict.fromkeys(w.entries)
    for e in texts:
        texts[e] = _entry_text(e)
    return "".join(map(texts.__getitem__, w.entries))


def print_formula(f: BracketFormula, labels: dict | None = None) -> str:
    """The text of f.  Each distinct diamond label is printed once and kept
    in labels, keyed by the worm; pass one dict to share the texts across
    several formulas, as the certificate encoder does.  A new one by default."""
    labels = {} if labels is None else labels
    # an explicit stack of formulas still to print and literal text
    out: list = []
    stack = [f]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Diamond):
            text = labels.get(x.label)
            if text is None:
                text = labels[x.label] = _entry_text(x.label)
            out.append(text)
            body = x.body
            if isinstance(body, Conj):
                stack += ("]", body, "[")
            elif not isinstance(body, Top):
                stack.append(body)
        elif isinstance(x, Conj):
            if isinstance(x.right, Conj):
                stack += ("]", x.right, "&[", x.left)
            else:
                stack += (x.right, "&", x.left)
        elif isinstance(x, Var):
            out.append("p%d" % x.index)
        elif isinstance(x, Top):
            out.append("T")
        else:
            raise TypeError(x)
    return "".join(out)


# --- structural measures ---------------------------------------------------


def nesting_worm(w: BracketWorm) -> int:
    """Maximum bracket nesting depth."""
    return nesting_formula(w)


def nesting_formula(f: BracketFormula | BracketWorm) -> int:
    """Maximum bracket nesting depth of a formula, or of a worm.  The walk
    keeps the depth of each distinct node and runs on an explicit stack, so
    shared parts are not walked again and depth is not bounded by recursion."""
    depth: dict = {}
    stack = [f]
    while stack:
        x = stack[-1]
        if x.__class__ is BracketWorm:
            parts = [(e, 1) for e in x.entries]
        elif isinstance(x, (Top, Var)):
            parts = ()
        elif isinstance(x, Conj):
            parts = (x.left, 0), (x.right, 0)
        elif isinstance(x, Diamond):
            parts = (x.label, 1), (x.body, 0)
        else:
            raise TypeError(x)
        todo = dict.fromkeys(p for p, _ in parts if p not in depth)
        if not todo:
            depth[stack.pop()] = max((depth[p] + d for p, d in parts), default=0)
        stack += todo
    return depth[f]
