"""Derivation checking, order deciders, provers, and the search harness."""

import gc
import io
import itertools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketcalc import (
    Certificate,
    HasVariables,
    NotProvable,
    Sequent,
    SideMismatch,
    certificate_from_json,
    certificate_to_json,
    check_derivation,
    cmp,
    conj_to_worm,
    decide_closed_geq,
    decide_le,
    decide_lt,
    derived_mono,
    nesting_formula,
    o_star,
    parse_formula,
    parse_worm,
    print_formula,
    prove_le,
    prove_lt,
    signature,
    tau,
)
from bracketcalc import calculus, syntax
from bracketcalc.calculus import _check_node, worm_formula
from bracketcalc.cli import main
from bracketcalc.syntax import TOP, TOP_WORM, Conj, Diamond, Var
from certfuzz import misplace, mutate
from corpus import corpus

W = parse_worm
F = parse_formula


def valid(c):
    r = check_derivation(c)
    assert r.valid, (r.path, r.reason)
    return c


def invalid(c, reason_part=None):
    r = check_derivation(c)
    assert not r.valid
    if reason_part:
        assert reason_part in r.reason, r.reason
    return r


# --- checker unit tests -----------------------------------------------------------


def test_axioms():
    p1 = Var(1)
    valid(Certificate(Sequent(p1, p1), "AxId"))
    invalid(Certificate(Sequent(p1, Var(2)), "AxId"))
    valid(Certificate(Sequent(p1, TOP), "AxTop"))
    invalid(Certificate(Sequent(p1, p1), "AxTop"))
    conj = Conj(Var(1), Var(2))
    valid(Certificate(Sequent(conj, Var(1)), "AxConjL"))
    valid(Certificate(Sequent(conj, Var(2)), "AxConjR"))
    invalid(Certificate(Sequent(conj, Var(2)), "AxConjL"))
    invalid(Certificate(Sequent(Var(1), Var(1)), "AxConjL"))


def test_conj_intro_and_cut():
    p, q, r = Var(1), Var(2), Var(3)
    c1 = Certificate(Sequent(Conj(p, q), p), "AxConjL")
    c2 = Certificate(Sequent(Conj(p, q), q), "AxConjR")
    both = Certificate(Sequent(Conj(p, q), Conj(p, q)), "RConjIntro", (c1, c2))
    valid(both)
    bad = Certificate(Sequent(Conj(p, q), Conj(q, p)), "RConjIntro", (c1, c2))
    invalid(bad)
    thin = Certificate(Sequent(Conj(p, q), p), "RConjIntro", (c1,))
    invalid(thin, "expects 2")
    cut = Certificate(
        Sequent(Conj(Conj(p, q), r), p),
        "RCut",
        (
            Certificate(Sequent(Conj(Conj(p, q), r), Conj(p, q)), "AxConjL"),
            c1,
        ),
    )
    valid(cut)


def _side_le(a, b):
    # a |- b side built from the prover, known valid
    return prove_le(a, b)


def test_mono_rules():
    a, b = W("(())"), W("()")
    p1 = Var(1)
    prem = Certificate(Sequent(p1, p1), "AxId")
    side = _side_le(a, b)
    good = Certificate(
        Sequent(Diamond(a, p1), Diamond(b, p1)), "RMonoOuter", (prem,), side
    )
    valid(good)
    # side proving the wrong pair
    wrong = Certificate(
        Sequent(Diamond(b, p1), Diamond(a, p1)), "RMonoOuter", (prem,), side
    )
    invalid(wrong, "label ordering")
    missing = Certificate(Sequent(Diamond(a, p1), Diamond(b, p1)), "RMonoOuter", (prem,))
    invalid(missing, "requires")
    absorb = Certificate(
        Sequent(Diamond(a, Diamond(b, p1)), Diamond(b, p1)),
        "RMonoAbsorb",
        (prem,),
        side,
    )
    valid(absorb)
    absorb_bad = Certificate(
        Sequent(Diamond(a, Diamond(b, p1)), Diamond(a, p1)),
        "RMonoAbsorb",
        (prem,),
        side,
    )
    invalid(absorb_bad, "inner label")


def test_rneg5():
    a, b = W("(())"), W("()")
    phi, psi = Var(1), Var(2)
    strict = prove_lt(a, b)
    good = Certificate(
        Sequent(
            Conj(Diamond(a, phi), Diamond(b, psi)),
            Diamond(a, Conj(phi, Diamond(b, psi))),
        ),
        "RNeg5",
        (),
        strict,
    )
    valid(good)
    # a plain side is not enough: the condition must be strict
    plain = Certificate(Sequent(worm_formula(a), worm_formula(b)), "AxTop")
    lax = Certificate(good.conclusion, "RNeg5", (), prove_le(a, a))
    r = invalid(lax, "strict")
    assert r.path == "root"


def test_invalid_path_is_first_preorder():
    p = Var(1)
    bad_leaf = Certificate(Sequent(p, Var(2)), "AxId")
    good_leaf = Certificate(Sequent(p, p), "AxId")
    node = Certificate(Sequent(p, Conj(Var(2), p)), "RConjIntro", (bad_leaf, good_leaf))
    r = invalid(node)
    assert r.path == "root.premises[0]"


def test_tampered_rule_tag():
    c = prove_lt(W("(())"), W("()"))
    tampered = Certificate(c.conclusion, "AxId", c.premises, c.side)
    assert not check_derivation(tampered).valid


# --- deciders ----------------------------------------------------------------------


def test_decide_examples():
    a = W("()(())")
    assert decide_le(a, a)
    assert decide_le(W("(())"), W("()"))
    assert not decide_le(W("()()"), W("(())"))
    assert not decide_lt(a, a)
    assert decide_lt(W("(())"), W("()"))
    # top is strictly below everything else and nothing is below top
    assert decide_lt(W("()"), W("T"))
    assert not decide_lt(W("T"), W("()"))


def test_decide_total_preorder():
    from bracketcalc import to_nf

    ws = corpus(5)
    rng = random.Random(61)
    for _ in range(3000):
        a, b = rng.choice(ws), rng.choice(ws)
        assert decide_le(a, b) or decide_le(b, a)
        if decide_le(a, b) and decide_le(b, a):
            # mutual derivability means equal normal forms: antisymmetry on
            # canonical representatives
            assert o_star(a) == o_star(b)
            assert to_nf(a) == to_nf(b)
    for _ in range(3000):
        a, b, c = rng.choice(ws), rng.choice(ws), rng.choice(ws)
        if decide_le(a, b) and decide_le(b, c):
            assert decide_le(a, c)
        if decide_lt(a, b) and decide_lt(b, c):
            assert decide_lt(a, c)


# --- provers -----------------------------------------------------------------------


def test_prove_examples():
    c = valid(prove_le(W("()(())"), W("T")))
    assert c.rule == "AxTop"
    c = valid(prove_lt(W("(())"), W("()")))
    assert c.conclusion.lhs == worm_formula(W("(())"))
    assert c.conclusion.rhs == worm_formula(W("()()"))
    valid(prove_lt(W("()"), W("T")))
    with pytest.raises(NotProvable):
        prove_lt(W("T"), W("()"))
    with pytest.raises(NotProvable):
        prove_le(W("()"), W("(())"))


def test_prove_corpus_exhaustive_small():
    ws = corpus(4)
    for a in ws:
        for b in ws:
            if decide_lt(a, b):
                valid(prove_lt(a, b))
            if decide_le(a, b):
                valid(prove_le(a, b))


def test_prove_corpus_sampled():
    ws = corpus(7)
    rng = random.Random(71)
    for _ in range(150):
        a, b = rng.choice(ws), rng.choice(ws)
        if decide_lt(a, b):
            valid(prove_lt(a, b))
        elif decide_le(a, b):
            valid(prove_le(a, b))


def test_inner_provers_called_directly_open_their_own_memo():
    from bracketcalc import proving

    a, b, n = W("((()))"), W("(())()"), W("(())")
    for cert in (proving.STD(b), proving.DTS(b), proving.EQw(b, n), proving.GTw(a, b)):
        valid(cert)
        assert proving._SCOPE.memo is None


def _lift_cert_oracle(mu, cert):
    """lift_cert as it was written first: each rule rebuilt through its own
    builder, which recomputes the conclusion from the lifted premises."""
    from bracketcalc import proving as p

    if mu.is_zero():
        return cert

    def lw(x):
        return p.iota_worm(p.add(mu, o_star(x)))

    def lf(f):
        if isinstance(f, Conj):
            return Conj(lf(f.left), lf(f.right))
        if isinstance(f, Diamond):
            return Diamond(lw(f.label), lf(f.body))
        return f

    def go(c):
        rule = c.rule
        concl = c.conclusion
        if rule in ("AxId", "AxTop", "AxConjL", "AxConjR"):
            return Certificate(Sequent(lf(concl.lhs), lf(concl.rhs)), rule)
        if rule == "RConjIntro":
            return p.conj_intro(go(c.premises[0]), go(c.premises[1]))
        if rule == "RCut":
            return p.cut(go(c.premises[0]), go(c.premises[1]))
        if rule == "RMonoOuter":
            a, b = concl.lhs.label, concl.rhs.label
            return p.mono(lw(a), lw(b), go(c.premises[0]), p._order_side(lw(b), lw(a)))
        if rule == "RMonoAbsorb":
            a, b = concl.lhs.label, concl.lhs.body.label
            return p.mono_absorb(
                lw(a), lw(b), go(c.premises[0]), p._order_side(lw(b), lw(a))
            )
        if rule == "RNeg5":
            a = concl.lhs.left.label
            b = concl.lhs.right.label
            return p.rneg5(
                lw(a),
                lf(concl.lhs.left.body),
                lw(b),
                lf(concl.lhs.right.body),
                p._strict_side(lw(b), lw(a)),
            )
        raise AssertionError(rule)

    return go(cert)


def test_lift_cert_matches_rule_by_rule_oracle(monkeypatch):
    from bracketcalc import proving

    calls = []
    lift = proving.lift_cert

    def recording(mu, cert):
        calls.append((mu, cert))
        return lift(mu, cert)

    monkeypatch.setattr(proving, "lift_cert", recording)
    ws = corpus(5)
    for a in ws:
        for b in ws:
            if decide_lt(a, b):
                prove_lt(a, b)
    # conjunction merges and longer worms lift the two rules these miss
    for a, b in itertools.product(corpus(3), repeat=2):
        conj_to_worm(Conj(worm_formula(a), worm_formula(b)))
    for w in corpus(7):
        proving.STD(w)
        proving.DTS(w)
    monkeypatch.undo()
    rules = set()
    for mu, cert in calls:
        assert lift(mu, cert) is _lift_cert_oracle(mu, cert)
        stack = [cert]
        while stack:
            node = stack.pop()
            rules.add(node.rule)
            stack.extend(node.premises)
    assert len(calls) > 200 and rules == set(calculus._ARITY)


def test_derived_mono_examples():
    s = prove_le(W("()"), W("()"))
    c = valid(derived_mono([s]))
    assert c.conclusion == Sequent(worm_formula(W("(())")), worm_formula(W("(())")))
    s2 = prove_le(W("()"), W("T"))
    c = valid(derived_mono([s2, s2]))
    assert c.conclusion.lhs == worm_formula(W("(())(())"))
    assert c.conclusion.rhs == worm_formula(W("()()"))
    c = valid(derived_mono([]))
    assert c.conclusion == Sequent(TOP, TOP)
    with pytest.raises(SideMismatch):
        derived_mono([Certificate(Sequent(Var(1), TOP), "AxTop")])


def test_derived_mono_sampled():
    ws = corpus(4)
    rng = random.Random(81)
    for _ in range(60):
        sides = []
        for _ in range(rng.randrange(1, 4)):
            a, b = rng.choice(ws), rng.choice(ws)
            if not decide_le(b, a):
                a, b = b, a
            sides.append(prove_le(b, a))
        valid(derived_mono(sides))


def test_conj_to_worm_examples():
    w, fwd, back = conj_to_worm(F("T&T"))
    assert w == TOP_WORM
    valid(fwd)
    valid(back)
    w, fwd, back = conj_to_worm(F("(())&()"))
    assert w == W("(())()")
    valid(fwd)
    valid(back)
    a = W("()(())")
    w, fwd, back = conj_to_worm(worm_formula(a))
    assert w == a
    assert fwd.rule == "AxId" or valid(fwd)
    with pytest.raises(HasVariables):
        conj_to_worm(F("p1&T"))


def test_conj_to_worm_sampled():
    ws = corpus(5)
    rng = random.Random(91)
    certs = []
    for _ in range(120):
        a, b = rng.choice(ws), rng.choice(ws)
        f = Conj(worm_formula(a), worm_formula(b))
        w, fwd, back = valid_pair(f)
        certs.append((f, w, fwd, back))
    # nested conjunctions too
    for _ in range(40):
        a, b, c = rng.choice(ws), rng.choice(ws), rng.choice(ws)
        f = Conj(Conj(worm_formula(a), worm_formula(b)), worm_formula(c))
        valid_pair(f)
        f = Conj(worm_formula(a), Conj(worm_formula(b), worm_formula(c)))
        valid_pair(f)
    # diamonds over conjunctions
    for _ in range(30):
        a, b = rng.choice(ws), rng.choice(ws)
        lab = rng.choice(ws)
        f = Diamond(lab, Conj(worm_formula(a), worm_formula(b)))
        valid_pair(f)


def valid_pair(f):
    w, fwd, back = conj_to_worm(f)
    valid(fwd)
    valid(back)
    assert fwd.conclusion == Sequent(f, worm_formula(w))
    assert back.conclusion == Sequent(worm_formula(w), f)
    return w, fwd, back


def test_decide_closed_geq_examples():
    assert decide_closed_geq(F("(())&()"), F("T"))
    assert decide_closed_geq(F("(())&()"), F("()()"))
    assert not decide_closed_geq(F("()"), F("(())"))
    with pytest.raises(HasVariables):
        decide_closed_geq(F("p1"), F("T"))


def test_calculus_never_imports_proving():
    # the checker must stay independent of the provers it checks
    import ast

    with open(calculus.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = ["%s.%s" % (node.module or "", a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any("proving" in n.split(".") for n in names), ast.unparse(node)


# --- monotonicity lemmas over emitted certificates -----------------------------------


def _collect_certs():
    ws = corpus(4)
    rng = random.Random(101)
    out = []
    for _ in range(80):
        a, b = rng.choice(ws), rng.choice(ws)
        if decide_lt(a, b):
            out.append(prove_lt(a, b))
        elif decide_le(a, b):
            out.append(prove_le(a, b))
    for _ in range(40):
        a, b = rng.choice(ws), rng.choice(ws)
        _, fwd, back = conj_to_worm(Conj(worm_formula(a), worm_formula(b)))
        out.extend((fwd, back))
    return out


def _iter_nodes(cert):
    """Every distinct node of a certificate, once each."""
    seen = set()
    stack = [cert]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        stack.extend(node.premises)
        if node.side is not None:
            stack.append(node.side)


def _ord_max(s):
    best = None
    for o in s:
        if best is None or cmp(o, best) > 0:
            best = o
    return best


def test_signature_and_nesting_monotone_on_certs():
    seen = 0
    for cert in _collect_certs():
        assert check_derivation(cert).valid
        for node in _iter_nodes(cert):
            lhs, rhs = node.conclusion.lhs, node.conclusion.rhs
            s_l = signature(tau(lhs))
            s_r = signature(tau(rhs))
            if s_r:
                assert s_l, print_formula(lhs)
                assert cmp(_ord_max(s_l), _ord_max(s_r)) >= 0
            if not s_l:
                assert not s_r
            assert nesting_formula(lhs) >= nesting_formula(rhs)
            seen += 1
    assert seen > 1000


# --- JSON wire format ------------------------------------------------------------------


def test_json_round_trip_and_golden():
    c = prove_lt(W("(())"), W("()"))
    text = certificate_to_json(c)
    c2 = certificate_from_json(text)
    assert certificate_to_json(c2) == text
    assert check_derivation(c2).valid
    obj = json.loads(text)
    assert obj["conclusion"] == {"lhs": "(())", "rhs": "()()"}
    assert set(obj) == {"rule", "conclusion", "premises", "side"}


def test_json_golden_axiom():
    c = prove_le(W("()"), W("T"))
    assert (
        certificate_to_json(c)
        == '{"conclusion": {"lhs": "()", "rhs": "T"}, "premises": [], '
        '"rule": "AxTop", "side": null}'
    )


# --- sharing: each distinct node is encoded, decoded and checked once -------------

_CHAIN6 = ("(((((())))))", "((((()()))))")


def _tree_and_dag(cert):
    """(tree nodes, distinct nodes) of a certificate."""
    sizes = {}
    stack = [(cert, False)]
    while stack:
        node, done = stack.pop()
        kids = node.premises + (() if node.side is None else (node.side,))
        if done:
            sizes[node] = 1 + sum(sizes[k] for k in kids)
        elif node not in sizes:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
    return sizes[cert], len(sizes)


def test_decode_rebuilds_sharing():
    cert = prove_lt(W(_CHAIN6[0]), W(_CHAIN6[1]))
    text = certificate_to_json(cert)
    decoded = certificate_from_json(text)
    tree, dag = _tree_and_dag(cert)
    assert tree > 5 * dag
    decoded_tree, decoded_dag = _tree_and_dag(decoded)
    assert decoded_tree == tree
    assert decoded_dag == dag
    # compared first: pytest's diff of two 2 MB strings takes minutes
    same = certificate_to_json(decoded) == text
    assert same


def test_checker_visits_each_distinct_node_once(monkeypatch):
    decoded = certificate_from_json(
        certificate_to_json(prove_lt(W(_CHAIN6[0]), W(_CHAIN6[1])))
    )
    visits = []

    def counting(node):
        visits.append(node)
        return _check_node(node)

    monkeypatch.setattr(calculus, "_check_node", counting)
    assert check_derivation(decoded).valid
    assert len(visits) == len(set(visits)) == _tree_and_dag(decoded)[1]


def _tree_oracle(obj):
    """Decode without sharing and check every occurrence in preorder: the
    verdict as the CLI prints it."""

    def build(node):
        return Certificate(
            Sequent(F(node["conclusion"]["lhs"]), F(node["conclusion"]["rhs"])),
            node["rule"],
            tuple(build(p) for p in node["premises"]),
            None if node["side"] is None else build(node["side"]),
        )

    stack = [(build(obj), "root")]
    while stack:
        node, path = stack.pop()
        reason = _check_node(node)
        if reason is not None:
            return "INVALID %s %s\n" % (path, reason)
        kids = [(p, "%s.premises[%d]" % (path, i)) for i, p in enumerate(node.premises)]
        if node.side is not None:
            kids.append((node.side, path + ".side"))
        stack.extend(reversed(kids))
    return "VALID\n"


def _json_nodes(obj):
    """(path, node) for every node of a JSON certificate, preorder."""
    stack = [("root", obj)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = [("%s.premises[%d]" % (path, i), p) for i, p in enumerate(node["premises"])]
        if node["side"] is not None:
            kids.append((path + ".side", node["side"]))
        stack.extend(reversed(kids))


def test_tampered_repeat_reports_the_tree_walks_first_failure(capsys, monkeypatch):
    text = certificate_to_json(prove_lt(W("(((())))"), W("((()()))")))
    # repeated subtrees with premises, most frequent first
    where = {}
    for path, node in _json_nodes(json.loads(text)):
        if node["premises"]:
            where.setdefault(json.dumps(node, sort_keys=True), []).append(path)
    repeats = sorted((p for p in where.values() if len(p) > 1), key=len, reverse=True)
    assert repeats
    checked = 0
    for paths in repeats[:5]:
        for target in (paths[0], paths[-1]):
            obj = json.loads(text)
            node = dict(_json_nodes(obj))[target]
            node["rule"] = "AxTop"
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
            assert main(["check", "-"]) == 1
            out = capsys.readouterr().out
            assert out == _tree_oracle(obj)
            assert out.startswith("INVALID %s " % target)
            checked += 1
    assert checked >= 4


def _tree_encoder(cert):
    """The encoder before sharing: one dict and two printed formulas per
    tree node."""
    out = {}
    stack = [(cert, out)]
    while stack:
        node, slot = stack.pop()
        slot["rule"] = node.rule
        slot["conclusion"] = {
            "lhs": print_formula(node.conclusion.lhs),
            "rhs": print_formula(node.conclusion.rhs),
        }
        slot["premises"] = [dict() for _ in node.premises]
        stack.extend(zip(node.premises, slot["premises"]))
        slot["side"] = None if node.side is None else {}
        if node.side is not None:
            stack.append((node.side, slot["side"]))
    return json.dumps(out, sort_keys=True)


# the certify benchmark's chains (CERTIFY_CHAINS in bench/workloads.py)
_CERTIFY_CHAINS = (
    ("lt", "((((()))))", "(((()())))"),
    ("le", "((((()))))", "(((()())))"),
    ("lt", _CHAIN6[0], _CHAIN6[1]),
    ("le", _CHAIN6[0], _CHAIN6[1]),
)


def test_shared_encoder_matches_the_tree_encoder():
    ws = corpus(4)
    encoded = 0
    for a in ws:
        for b in ws:
            if decide_lt(a, b):
                cert = prove_lt(a, b)
                same = certificate_to_json(cert) == _tree_encoder(cert)
                assert same, (a, b)
                encoded += 1
            if decide_le(a, b):
                cert = prove_le(a, b)
                same = certificate_to_json(cert) == _tree_encoder(cert)
                assert same, (a, b)
                encoded += 1
    assert encoded > 500
    for mode, a, b in _CERTIFY_CHAINS:
        cert = (prove_lt if mode == "lt" else prove_le)(W(a), W(b))
        same = certificate_to_json(cert) == _tree_encoder(cert)
        assert same, (mode, a, b)


def test_deep_chain_encodes_at_the_default_recursion_limit():
    leaf = Certificate(Sequent(TOP, TOP), "AxTop")
    cert = leaf
    for _ in range(3000):
        cert = Certificate(Sequent(TOP, TOP), "RMonoOuter", (cert,), leaf)
    text = certificate_to_json(cert)
    with pytest.raises(RecursionError):
        _tree_encoder(cert)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 10 * 3000)
    try:
        expected = _tree_encoder(cert)
    finally:
        sys.setrecursionlimit(limit)
    same = text == expected
    assert same


def test_decode_peaks_below_twice_the_text():
    text = certificate_to_json(prove_lt(W(_CHAIN6[0]), W(_CHAIN6[1])))
    # the prover's certificate is gone, so decoding builds every node anew
    gc.collect()
    tracemalloc.start()
    try:
        decoded = certificate_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text), (peak, len(text))
    same = certificate_to_json(decoded) == text
    assert same


def _corpus_certificates(max_pairs):
    ws = corpus(max_pairs)
    for a in ws:
        for b in ws:
            if decide_lt(a, b):
                yield prove_lt(a, b)
            if decide_le(a, b):
                yield prove_le(a, b)


_SMALL_TEXTS = tuple(certificate_to_json(c) for c in _corpus_certificates(3))


def _decoded(decode, text):
    """What a decoder makes of a text: the exception class and message, or
    the certificate's re-encoding and verdict."""
    try:
        cert = decode(text)
    except Exception as err:
        return type(err), str(err)
    return certificate_to_json(cert), repr(check_derivation(cert))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_decoder_agrees_with_the_strict_walk(data):
    text = data.draw(st.sampled_from(_SMALL_TEXTS))
    how = data.draw(st.sampled_from(["as is", "indented", "misplaced", "mutated"]))
    if how == "indented":
        text = json.dumps(json.loads(text), indent=1)
    elif how == "misplaced":
        text = misplace(data, text)
    elif how == "mutated":
        text = mutate(data, text)
    fast = _decoded(certificate_from_json, text)
    strict = _decoded(lambda t: calculus.certificate_from_json_obj(json.loads(t)), text)
    assert fast == strict, text


def test_valid_certificates_never_take_the_strict_walk(monkeypatch):
    def refuse(obj):
        raise AssertionError("the strict walk ran")

    texts = [certificate_to_json(c) for c in _corpus_certificates(4)]
    monkeypatch.setattr(calculus, "certificate_from_json_obj", refuse)
    for text in texts:
        same = certificate_to_json(certificate_from_json(text)) == text
        assert same
    assert len(texts) > 500


def _strict(text):
    return calculus.certificate_from_json_obj(json.loads(text))


def _cut_chain(depth, last="AxId", first="AxId"):
    """RCut T |- T over (the chain one shorter, `last` T |- T), down to
    `first` T |- T."""
    cert = Certificate(Sequent(TOP, TOP), first)
    for _ in range(depth):
        cert = Certificate(
            Sequent(TOP, TOP), "RCut", (cert, Certificate(Sequent(TOP, TOP), last))
        )
    return cert


_AXIOM = (
    '{"conclusion": {"lhs": "()", "rhs": "T"}, "premises": [], '
    '"rule": "AxTop", "side": null}'
)


@pytest.mark.parametrize(
    "text",
    [
        # json rejects raw control characters in strings
        _AXIOM.replace('"()"', '"(\n)"'),
        _AXIOM.replace('"T"', '"\tT"'),
        # an escape json decodes to "("
        _AXIOM.replace('"()"', '"\\u0028)"'),
        # JSON whitespace around the root, then two characters that are not
        " \t\r\n" + _AXIOM + "\n\r\t ",
        "\x0b" + _AXIOM,
        _AXIOM + "\u2003",
        # trailing garbage
        _AXIOM + " x",
        _AXIOM + _AXIOM,
        # an unknown rule
        _AXIOM.replace("AxTop", "AxBottom"),
        # one conclusion, different premises: the second node repeats the first
        # for 372 bytes, past two compared chunks, and must not be taken for it
        certificate_to_json(
            Certificate(Sequent(TOP, TOP), "RCut", (_cut_chain(4), _cut_chain(4, "AxTop")))
        ),
    ],
)
def test_decoder_agrees_with_the_strict_walk_at_the_edges(text):
    assert _decoded(certificate_from_json, text) == _decoded(_strict, text)


def test_decoder_returns_the_strict_walks_node():
    # json indents in pure Python, 7 s on the depth-6 chain alone, so the
    # chains are only laid out compactly
    chains = ((prove_lt if m == "lt" else prove_le)(W(a), W(b)) for m, a, b in _CERTIFY_CHAINS)
    cases = itertools.chain(
        ((cert, True) for cert in _corpus_certificates(4)), ((cert, False) for cert in chains)
    )
    decoded = 0
    for cert, indent in cases:
        text = certificate_to_json(cert)
        obj = json.loads(text)
        # the v1 text, and the same tree laid out otherwise
        layouts = [text, json.dumps(obj, separators=(",", ":"))]
        if indent:
            layouts.append(json.dumps(obj, indent=1))
        assert calculus.certificate_from_json_obj(obj) is cert
        for layout in layouts:
            assert certificate_from_json(layout) is cert
        decoded += 1
    assert decoded > 500


def test_decode_builds_each_distinct_node_about_once(monkeypatch):
    text = certificate_to_json(prove_lt(W(_CHAIN6[0]), W(_CHAIN6[1])))
    built, sequents = [], []

    def counting(*args):
        built.append(None)
        return Certificate(*args)

    def counting_sequents(*args):
        sequents.append(None)
        return Sequent(*args)

    monkeypatch.setattr(calculus, "Certificate", counting)
    monkeypatch.setattr(calculus, "Sequent", counting_sequents)
    decoded = certificate_from_json(text)
    monkeypatch.undo()
    dag = _tree_and_dag(decoded)[1]
    # measured: 1 416 constructions of each for 1 416 distinct nodes; a
    # decoder that builds every occurrence makes 21 204
    assert len(built) <= 1.1 * dag, len(built)
    assert len(sequents) <= 1.1 * dag, len(sequents)


def test_codec_reads_and_writes_each_distinct_label_about_once(monkeypatch):
    cert = prove_lt(W(_CHAIN6[0]), W(_CHAIN6[1]))
    text = certificate_to_json(cert)
    groups, entries = [], []
    group, entry_text = syntax._group, syntax._entry_text
    monkeypatch.setattr(syntax, "_group", lambda s: groups.append(s) or group(s))
    monkeypatch.setattr(syntax, "_entry_text", lambda w: entries.append(w) or entry_text(w))
    assert certificate_from_json(text) is cert
    # measured: 48 label groups parsed, one per distinct label, of 1 571
    # label occurrences in the distinct formula strings
    assert len(groups) <= 50, len(groups)
    entries.clear()
    same = certificate_to_json(cert) == text
    assert same
    # measured: 48, one per distinct label, of the same 1 571 occurrences
    assert len(entries) <= 48, len(entries)


def test_deep_failure_reports_the_whole_path():
    depth = 2000
    result = check_derivation(_cut_chain(depth, first="AxConjL"))
    assert result.path == "root" + ".premises[0]" * depth
    assert result.reason == "AxConjL must project the left conjunct"


# --- bounded forward search: soundness against the deciders ---------------------------


def _forward_search(depth=4):
    worms = list(corpus(3))
    formulas = set()
    for w in worms:
        formulas.add(worm_formula(w))
        formulas.add(Diamond(TOP_WORM, worm_formula(w)))
    for a, b in itertools.product(worms, repeat=2):
        formulas.add(Conj(worm_formula(a), worm_formula(b)))
    # conclusions the absorption rule can produce
    for a, b in itertools.product(worms, repeat=2):
        fa, fb = worm_formula(a), worm_formula(b)
        if isinstance(fa, Diamond):
            formulas.add(Diamond(fa.label, Conj(fa.body, fb)))
    formulas = frozenset(formulas)
    seqs = set()
    for f in formulas:
        seqs.add((f, f))
        seqs.add((f, TOP))
        if isinstance(f, Conj):
            seqs.add((f, f.left))
            seqs.add((f, f.right))

    def le_derived(a, b):
        fa, fb = worm_formula(a), worm_formula(b)
        return (fa, fb) in seqs or (fa, Diamond(TOP_WORM, fb)) in seqs

    def lt_derived(a, b):
        return (worm_formula(a), Diamond(TOP_WORM, worm_formula(b))) in seqs

    for _ in range(depth):
        new = set()
        by_lhs = {}
        by_rhs = {}
        for l, r in seqs:
            by_lhs.setdefault(l, set()).add(r)
            by_rhs.setdefault(r, set()).add(l)
        # conjunction introduction and cut
        for l, rs in by_lhs.items():
            for r1 in rs:
                for r2 in rs:
                    f = Conj(r1, r2)
                    if f in formulas:
                        new.add((l, f))
                for r2 in by_lhs.get(r1, ()):
                    new.add((l, r2))
        # monotonicity rules driven by derived orderings
        for a, b in itertools.product(worms, repeat=2):
            if not le_derived(a, b):
                continue
            for l, r in list(seqs):
                f1, f2 = Diamond(a, l), Diamond(b, r)
                if f1 in formulas and f2 in formulas:
                    new.add((f1, f2))
                f1 = Diamond(a, Diamond(b, l))
                if f1 in formulas and f2 in formulas:
                    new.add((f1, f2))
        # conjunction absorption for derived strict pairs
        for a, b in itertools.product(worms, repeat=2):
            if not lt_derived(a, b):
                continue
            for fa in formulas:
                if not (isinstance(fa, Diamond) and fa.label == a):
                    continue
                for fb in formulas:
                    if not (isinstance(fb, Diamond) and fb.label == b):
                        continue
                    l = Conj(fa, fb)
                    r = Diamond(a, Conj(fa.body, fb))
                    if l in formulas and r in formulas:
                        new.add((l, r))
        before = len(seqs)
        seqs |= new
        if len(seqs) == before:
            break
    return worms, seqs


def test_bounded_search_sound():
    worms, seqs = _forward_search()
    derived_pairs = 0
    for a in worms:
        for b in worms:
            fa, fb = worm_formula(a), worm_formula(b)
            if (fa, fb) in seqs or (fa, Diamond(TOP_WORM, fb)) in seqs:
                assert decide_le(a, b), (a, b)
                derived_pairs += 1
            if (fa, Diamond(TOP_WORM, fb)) in seqs:
                assert decide_lt(a, b), (a, b)
    assert derived_pairs > 20
