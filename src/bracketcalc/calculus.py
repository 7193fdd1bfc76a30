"""The bracket calculus as checkable derivation certificates.

A certificate is a derivation tree tagged with one of nine rules.  The two
monotonicity rules and the conjunction-absorption rule carry an embedded
side derivation establishing the required ordering fact between bracket
worms; the checker re-verifies those side derivations too, so a valid
certificate is self-contained.

Certificates are hash-consed like every other term: one conclusion, rule,
premises and side make one node, so equal subtrees are one object however
they were built, and a certificate whose side derivations recur is a
shared DAG in memory.  The checker verifies each distinct node once.  The
v1 JSON wire format writes the tree in full; the encoder builds the text
around each distinct node once, and the decoder reads that layout with a
stack, reusing the node of a repeated span, or else walks json.loads's tree.
Each distinct formula is printed or parsed once, and through one shared label
table each distinct diamond label about once; every table lives for one call.

Rule tags:
  AxId          phi |- phi
  AxTop         phi |- T
  AxConjL       phi & psi |- phi
  AxConjR       phi & psi |- psi
  RConjIntro    from phi |- psi and phi |- chi:  phi |- psi & chi
  RCut          from phi |- psi and psi |- chi:  phi |- chi
  RMonoOuter    from phi |- psi, side b <= a:    (a)phi |- (b)psi
  RMonoAbsorb   from phi |- psi, side b <= a:    (a)(b)phi |- (b)psi
  RNeg5         side b < a:   (a)phi & (b)psi |- (a)[phi & (b)psi]

A side for the monotonicity rules concludes a |- b or a |- ()b; the side
for RNeg5 must conclude a |- ()b.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quote

from ._intern import Interned, lookup, store
from .ordinals import cmp
from .syntax import (
    TOP,
    TOP_WORM,
    BracketFormula,
    BracketWorm,
    Conj,
    Diamond,
    Top,
    parse_formula,
    print_formula,
)
from .worms import o_star

_ARITY = {
    "AxId": 0,
    "AxTop": 0,
    "AxConjL": 0,
    "AxConjR": 0,
    "RConjIntro": 2,
    "RCut": 2,
    "RMonoOuter": 1,
    "RMonoAbsorb": 1,
    "RNeg5": 0,
}

_NEEDS_SIDE = {"RMonoOuter", "RMonoAbsorb", "RNeg5"}

# the v1 layout around a node's premises, with strings json reads as they
# are; a node without premises or side is read whole, its rule in group 3
_STR = r'"([^"\\\x00-\x1f]*)"'
_NODE = re.compile(
    r'\{"conclusion": \{"lhs": %s, "rhs": %s\}, "premises": \['
    r'(?:\], "rule": %s, "side": null\})?' % (_STR, _STR, _STR)
)
_TAIL = re.compile(r'\], "rule": %s, "side": (null)?' % _STR)


class NotProvable(ValueError):
    pass


class SideMismatch(ValueError):
    pass


class HasVariables(ValueError):
    pass


class Sequent(Interned):
    __slots__ = ("lhs", "rhs")

    def __new__(cls, lhs: BracketFormula, rhs: BracketFormula):
        key = (cls, lhs, rhs)
        node = lookup(key)
        if node is None:
            node = store(key, object.__new__(cls))
            node.lhs = lhs
            node.rhs = rhs
        return node

    def __repr__(self):
        return "%s |- %s" % (print_formula(self.lhs), print_formula(self.rhs))


class Certificate(Interned):
    __slots__ = ("conclusion", "rule", "premises", "side")

    def __new__(cls, conclusion: Sequent, rule: str, premises=(), side=None):
        if rule not in _ARITY:
            raise ValueError("unknown rule %r" % rule)
        premises = tuple(premises)
        key = (cls, conclusion, rule, premises, side)
        node = lookup(key)
        if node is None:
            node = store(key, object.__new__(cls))
            node.conclusion = conclusion
            node.rule = rule
            node.premises = premises
            node.side = side
        return node

    def __repr__(self):
        return "Certificate(%r, %s)" % (self.conclusion, self.rule)


class CheckResult:
    __slots__ = ("valid", "path", "reason")

    def __init__(self, valid: bool, path: str = "", reason: str = ""):
        self.valid = valid
        self.path = path
        self.reason = reason

    def __bool__(self):
        return self.valid

    def __repr__(self):
        if self.valid:
            return "Valid"
        return "Invalid(%s: %s)" % (self.path, self.reason)


VALID = CheckResult(True)


def worm_formula(w: BracketWorm) -> BracketFormula:
    """The worm as a formula: a chain of diamonds ending in top."""
    f: BracketFormula = TOP
    for e in reversed(w.entries):
        f = Diamond(e, f)
    return f


def formula_worm(f: BracketFormula):
    """The worm a formula denotes, or None for non-worm formulas."""
    entries = []
    while True:
        if isinstance(f, Top):
            return BracketWorm(tuple(entries))
        if not isinstance(f, Diamond):
            return None
        entries.append(f.label)
        f = f.body


def _spells(f: BracketFormula, w: BracketWorm) -> bool:
    """Whether f is worm_formula(w), read off f without building it."""
    for e in w.entries:
        if f.__class__ is not Diamond or f.label is not e:
            return False
        f = f.body
    return f is TOP


def _side_shape(side_concl: Sequent, a: BracketWorm, b: BracketWorm):
    """'plain', 'strict', or None: how the side relates worms a and b."""
    if not _spells(side_concl.lhs, a):
        return None
    rhs = side_concl.rhs
    if _spells(rhs, b):
        return "plain"
    if rhs.__class__ is Diamond and rhs.label is TOP_WORM and _spells(rhs.body, b):
        return "strict"
    return None


def _check_node(c: Certificate):
    """Schema check for one node; returns a reason string or None."""
    concl = c.conclusion
    rule = c.rule
    if len(c.premises) != _ARITY[rule]:
        return "rule %s expects %d premises" % (rule, _ARITY[rule])
    if (c.side is not None) != (rule in _NEEDS_SIDE):
        return "rule %s %s a side derivation" % (
            rule,
            "requires" if rule in _NEEDS_SIDE else "does not take",
        )
    if rule == "AxId":
        if concl.lhs != concl.rhs:
            return "AxId conclusion must have equal sides"
        return None
    if rule == "AxTop":
        if not isinstance(concl.rhs, Top):
            return "AxTop right side must be T"
        return None
    if rule == "AxConjL":
        if not (isinstance(concl.lhs, Conj) and concl.lhs.left == concl.rhs):
            return "AxConjL must project the left conjunct"
        return None
    if rule == "AxConjR":
        if not (isinstance(concl.lhs, Conj) and concl.lhs.right == concl.rhs):
            return "AxConjR must project the right conjunct"
        return None
    if rule == "RConjIntro":
        p1, p2 = c.premises
        if p1.conclusion.lhs != concl.lhs or p2.conclusion.lhs != concl.lhs:
            return "RConjIntro premises must share the conclusion's left side"
        if concl.rhs != Conj(p1.conclusion.rhs, p2.conclusion.rhs):
            return "RConjIntro conclusion must conjoin the premises"
        return None
    if rule == "RCut":
        p1, p2 = c.premises
        if p1.conclusion.lhs != concl.lhs:
            return "RCut first premise must start at the conclusion's left side"
        if p1.conclusion.rhs != p2.conclusion.lhs:
            return "RCut premises must meet in the middle"
        if p2.conclusion.rhs != concl.rhs:
            return "RCut second premise must end at the conclusion's right side"
        return None
    if rule == "RMonoOuter":
        if not (isinstance(concl.lhs, Diamond) and isinstance(concl.rhs, Diamond)):
            return "RMonoOuter conclusion must be a diamond sequent"
        a, b = concl.lhs.label, concl.rhs.label
        (p,) = c.premises
        if p.conclusion.lhs != concl.lhs.body or p.conclusion.rhs != concl.rhs.body:
            return "RMonoOuter premise must relate the diamond bodies"
        if _side_shape(c.side.conclusion, a, b) is None:
            return "side condition must conclude the label ordering"
        return None
    if rule == "RMonoAbsorb":
        if not (isinstance(concl.lhs, Diamond) and isinstance(concl.lhs.body, Diamond)):
            return "RMonoAbsorb left side must start with two diamonds"
        if not isinstance(concl.rhs, Diamond):
            return "RMonoAbsorb right side must be a diamond"
        a = concl.lhs.label
        b = concl.lhs.body.label
        if concl.rhs.label != b:
            return "RMonoAbsorb must keep the inner label"
        (p,) = c.premises
        if p.conclusion.lhs != concl.lhs.body.body or p.conclusion.rhs != concl.rhs.body:
            return "RMonoAbsorb premise must relate the inner bodies"
        if _side_shape(c.side.conclusion, a, b) is None:
            return "side condition must conclude the label ordering"
        return None
    if rule == "RNeg5":
        if not (
            isinstance(concl.lhs, Conj)
            and isinstance(concl.lhs.left, Diamond)
            and isinstance(concl.lhs.right, Diamond)
        ):
            return "RNeg5 left side must conjoin two diamonds"
        a = concl.lhs.left.label
        b = concl.lhs.right.label
        expected = Diamond(a, Conj(concl.lhs.left.body, concl.lhs.right))
        if concl.rhs != expected:
            return "RNeg5 conclusion must absorb the smaller diamond"
        if _side_shape(c.side.conclusion, a, b) != "strict":
            return "side condition must be strict"
        return None
    raise AssertionError(rule)


def check_derivation(cert: Certificate) -> CheckResult:
    """Validate a certificate; reports the first failing node in preorder.

    A node shared by several parents is checked once: when it comes up
    again, its first occurrence and everything below it have passed.
    """
    seen = set()
    # (node, its parent's entry, its premise index or -1 for the side); a
    # path is spelled out only for the failing node, so a deep chain costs
    # linear space
    stack = [(cert, None, 0)]
    while stack:
        entry = stack.pop()
        node = entry[0]
        if node in seen:
            continue
        seen.add(node)
        reason = _check_node(node)
        if reason is not None:
            steps = []
            while entry[1] is not None:
                _, parent, i = entry
                steps.append(".side" if i < 0 else ".premises[%d]" % i)
                entry = parent
            steps.append("root")
            return CheckResult(False, "".join(reversed(steps)), reason)
        if node.side is not None:
            stack.append((node.side, entry, -1))
        premises = node.premises
        for i in range(len(premises) - 1, -1, -1):
            stack.append((premises[i], entry, i))
    return VALID


# --- order deciders ----------------------------------------------------------


def decide_le(a: BracketWorm, b: BracketWorm) -> bool:
    """True iff b lies at or below a in the derivable ordering."""
    return cmp(o_star(b), o_star(a)) <= 0


def decide_lt(a: BracketWorm, b: BracketWorm) -> bool:
    """True iff b lies strictly below a."""
    return cmp(o_star(b), o_star(a)) < 0



# --- JSON wire format ----------------------------------------------------------


def certificate_to_json(cert: Certificate) -> str:
    """The v1 JSON text of a certificate: the tree that json.dumps with
    sort_keys=True writes, byte for byte.

    Each distinct node is turned once into its literal text around its
    children; a child without premises or side is written into that text.
    Each distinct formula is printed and quoted once, sharing one label
    table, so each distinct diamond label is printed once.  A walk of the
    tree with an explicit stack then emits the fragments of every
    occurrence, so any depth encodes.
    """
    quoted: dict = {}
    labels: dict = {}

    def text(f: BracketFormula) -> str:
        got = quoted.get(f)
        if got is None:
            got = quoted[f] = _quote(print_formula(f, labels))
        return got

    def layout(node: Certificate) -> list:
        """The literal text of node and its children, in order."""
        concl = node.conclusion
        items = ['{"conclusion": {"lhs": %s, "rhs": %s}, "premises": [' % (
            text(concl.lhs), text(concl.rhs)
        )]
        for i, p in enumerate(node.premises):
            if i:
                items.append(", ")
            items.append(p)
        items.append('], "rule": %s, "side": ' % _quote(node.rule))
        items += ("null}",) if node.side is None else (node.side, "}")
        return items

    leaves: dict = {}  # node without premises or side -> its whole text
    # node -> its fragments and children, last first, ready to push
    parts: dict = {}
    todo = [cert]
    while todo:
        node = todo.pop()
        if node in parts:
            continue
        seq = []
        frag = ""
        for item in layout(node):
            if item.__class__ is not str:
                if item.premises or item.side is not None:
                    seq += (frag, item)
                    frag = ""
                    todo.append(item)
                    continue
                leaf = leaves.get(item)
                if leaf is None:
                    leaf = leaves[item] = "".join(layout(item))
                item = leaf
            frag += item
        seq.append(frag)
        seq.reverse()
        parts[node] = seq
    out = []
    stack = [cert]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
        else:
            stack += parts[item]
    return "".join(out)


def certificate_from_json_obj(obj) -> Certificate:
    """Decode a v1 JSON tree; equal subtrees become one shared node.

    Each distinct formula string is parsed once, and all of them share one
    label table, as in certificate_from_json.
    """
    # build bottom-up with an explicit stack so deep trees stay safe
    todo = [obj]
    order = []
    while todo:
        node = todo.pop()
        if not isinstance(node, dict):
            raise ValueError("certificate node is not an object: %s" % type(node).__name__)
        # only a missing key or null means none
        premises = node.get("premises")
        if premises is None:
            premises = []
        elif not isinstance(premises, list):
            raise ValueError(
                "certificate premises are not a list: %s" % type(premises).__name__
            )
        side = node.get("side")
        order.append((node, premises, side))
        todo.extend(premises)
        if side is not None:
            todo.append(side)
    formulas: dict = {}
    labels: dict = {}

    def formula(text) -> BracketFormula:
        if not isinstance(text, str):
            raise ValueError("certificate formula is not a string: %s" % type(text).__name__)
        got = formulas.get(text)
        if got is None:
            got = formulas[text] = parse_formula(text, labels)
        return got

    built: dict = {}
    for node, premises, side in reversed(order):
        built[id(node)] = Certificate(
            Sequent(
                formula(node["conclusion"]["lhs"]),
                formula(node["conclusion"]["rhs"]),
            ),
            node["rule"],
            tuple(built[id(p)] for p in premises),
            None if side is None else built[id(side)],
        )
    return built[id(obj)]


def certificate_from_json(text: str) -> Certificate:
    """Decode v1 JSON text; equal subtrees become one shared node.

    A loop with an explicit stack reads the layout certificate_to_json
    writes, at any depth.  A node without premises or side is read in one
    match, and its text pair and rule give its node at once if one was built
    before.  Text that starts with the bytes of the last node built with the
    same conclusion text is the same JSON value, since an object's text ends
    at its closing brace, so that node is reused and its span skipped.
    Formulas are parsed only for a node being built, each distinct string
    once, and they share one label table, so a label group met again in any
    of them is taken from it rather than parsed.  Other text goes to the
    strict walk certificate_from_json_obj, which raises the error it
    deserves."""
    formulas: dict = {}
    labels: dict = {}

    def sequent(key: tuple) -> Sequent:
        """The conclusion of a node whose lhs and rhs texts lead key."""
        for f in key[:2]:
            if f not in formulas:
                formulas[f] = parse_formula(f, labels)
        return Sequent(formulas[key[0]], formulas[key[1]])

    leaves: dict = {}  # (lhs, rhs, rule) text -> the node without premises or side
    last: dict = {}  # (lhs, rhs, None) text -> (start, length, node) of the last node built
    stack: list = []  # open nodes: [conclusion text, start, premises(, rule)]
    pos = len(text) - len(text.lstrip(" \t\n\r"))
    node = ...  # a node starts at pos; None is a null side
    try:
        while node is ... or stack:
            if node is ...:
                m = _NODE.match(text, pos)
                if m is None:
                    break
                key = m.groups()
                if key[2] is not None:
                    node = leaves.get(key)
                    if node is None:
                        node = leaves[key] = Certificate(sequent(key), key[2])
                    pos = m.end()
                    continue
                start, length, reuse = last.get(key, (0, 0, None))
                # chunks double, so a mismatch costs about the bytes matched
                i, k = 0, min(64, length)
                while k and text.startswith(text[start + i : start + i + k], pos + i):
                    i, k = i + k, min(2 * k, length - i - k)
                if reuse is not None and not k:
                    node, pos = reuse, pos + length
                    continue
                stack.append([key, pos, []])
                pos = m.end()
                if text.startswith("{", pos):
                    continue
            elif len(stack[-1]) == 3:  # node is a premise
                stack[-1][2].append(node)
                node = ...
                if text.startswith(", ", pos):
                    pos += 2
                    continue
            elif not text.startswith("}", pos):
                break
            else:  # node is the side
                key, start, premises, rule = stack.pop()
                node = Certificate(sequent(key), rule, premises, node)
                pos += 1
                last[key] = (start, pos - start, node)
                continue
            # the premises of the innermost open node end at pos
            m = _TAIL.match(text, pos)
            if m is None:
                break
            stack[-1].append(m[1])
            pos = m.end()
            node = None if m[2] else ...
        else:  # the root is read
            if not text[pos:].strip(" \t\n\r"):
                return node
    except ValueError:
        pass
    return certificate_from_json_obj(json.loads(text))
