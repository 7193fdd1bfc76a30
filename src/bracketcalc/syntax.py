"""Concrete syntax for bracket worms and strictly positive bracket formulas.

Surface syntax is plain ASCII: `(` `)` for brackets, `T` for the top worm,
`&` for conjunction, `p<digits>` for variables, whitespace ignored.  A
bracket group with empty body denotes the top worm, and a trailing top body
is suppressed when printing, so parse(print(x)) == x on canonical output.

Conjunction under a bracket needs explicit grouping, written `[` formula `]`;
it only ever appears in machine-produced derivation text.

Worms and formulas are hash-consed: equal values are one object, so
equality and hashing are identity.
"""

from __future__ import annotations

from ._intern import lookup, store


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


class BracketWorm:
    """A finite sequence of bracket worms; the empty sequence is top."""

    __slots__ = ("entries", "_o", "__weakref__")

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


class BracketFormula:
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
    __slots__ = ("index", "__weakref__")

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
    __slots__ = ("left", "right", "__weakref__")

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
    __slots__ = ("label", "body", "__weakref__")

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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, message: str):
        raise ParseError(message, self.pos)

    def parse_group(self) -> BracketWorm:
        # one "( body )" group; empty body is top
        assert self.peek() == "("
        self.pos += 1
        if self.peek() == ")":
            self.pos += 1
            return TOP_WORM
        inner = self.parse_worm_body()
        if self.peek() != ")":
            self.fail("expected ')'")
        self.pos += 1
        return inner

    def parse_worm_body(self) -> BracketWorm:
        c = self.peek()
        if c == "T":
            self.pos += 1
            return TOP_WORM
        if c != "(":
            self.fail("expected worm")
        entries = []
        while self.peek() == "(":
            entries.append(self.parse_group())
        return BracketWorm(tuple(entries))

    def parse_atom(self) -> BracketFormula:
        c = self.peek()
        if c == "T":
            self.pos += 1
            return TOP
        if c == "p":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise ParseError("expected variable index", start)
            index = int(self.text[start:self.pos])
            if index < 1:
                raise ParseError("variable index must be positive", start)
            return Var(index)
        if c == "[":
            self.pos += 1
            inner = self.parse_formula_body()
            if self.peek() != "]":
                self.fail("expected ']'")
            self.pos += 1
            return inner
        if c == "(":
            label = self.parse_group()
            nxt = self.peek()
            if nxt in ("T", "p", "(", "["):
                body = self.parse_atom()
            else:
                body = TOP
            return Diamond(label, body)
        self.fail("expected formula")

    def parse_formula_body(self) -> BracketFormula:
        val = self.parse_atom()
        while self.peek() == "&":
            self.pos += 1
            val = Conj(val, self.parse_atom())
        return val


def parse_worm(text: str) -> BracketWorm:
    p = _Parser(text)
    w = p.parse_worm_body()
    p.skip_ws()
    if p.pos != len(text):
        p.fail("trailing input")
    return w


def parse_formula(text: str) -> BracketFormula:
    p = _Parser(text)
    f = p.parse_formula_body()
    p.skip_ws()
    if p.pos != len(text):
        p.fail("trailing input")
    return f


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


def print_formula(f: BracketFormula) -> str:
    # an explicit stack of formulas still to print and literal text
    out: list = []
    stack = [f]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Diamond):
            out.append(_entry_text(x.label))
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
    return max((nesting_worm(e) + 1 for e in w.entries), default=0)


def nesting_formula(f: BracketFormula) -> int:
    if isinstance(f, (Top, Var)):
        return 0
    if isinstance(f, Conj):
        return max(nesting_formula(f.left), nesting_formula(f.right))
    if isinstance(f, Diamond):
        return max(nesting_worm(f.label) + 1, nesting_formula(f.body))
    raise TypeError(f)
