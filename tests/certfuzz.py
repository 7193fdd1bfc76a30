"""Hypothesis strategies that damage JSON certificates, shared by the CLI
fuzz test and the decoder's differential test."""

import copy
import json

from hypothesis import strategies as st

garbage = st.one_of(
    st.text(alphabet="()[]T&p0123w^+hi,- \u00b2\u0661", max_size=16),
    st.sampled_from(["9" * 5000, "p" + "9" * 5000]),
)

json_value = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 2),
        st.sampled_from(["", "()", "(())", "p1", "T&T", "AxId", "RCut", "(("]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2),
        st.dictionaries(st.sampled_from(["lhs", "rhs", "rule"]), inner, max_size=2),
    ),
    max_leaves=4,
)


def _slots(node, out):
    """Every (container, key) in a decoded JSON value, preorder."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _nodes(cert):
    """Every certificate node of an unmutated JSON certificate, preorder."""
    out, stack = [], [cert]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node["premises"]))
        if node["side"] is not None:
            stack.append(node["side"])
    return out


def mutate(data, text: str) -> str:
    """The certificate text with subtrees copied over others, then one to
    three values replaced or keys deleted, and maybe garbage spliced in."""
    cert = json.loads(text)
    # copy subtrees over others first, so that the mutations below leave
    # equal and nearly equal subtrees for the decoder to share
    for _ in range(data.draw(st.integers(0, 2))):
        nodes = _nodes(cert)
        pick = st.integers(0, len(nodes) - 1)
        src, dst = nodes[data.draw(pick)], nodes[data.draw(pick)]
        copied = copy.deepcopy(src)
        dst.clear()
        dst.update(copied)
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(cert, [])
        node, key = slots[data.draw(st.integers(0, len(slots) - 1))]
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(json_value)
    text = json.dumps(cert)
    if data.draw(st.booleans()):
        cut = data.draw(st.integers(0, len(text)))
        text = text[:cut] + data.draw(garbage) + text[cut:]
    return text


def misplace(data, text: str) -> str:
    """The certificate text with one value copied over another anywhere in
    it: a conclusion where a node belongs, a formula where a rule does."""
    cert = json.loads(text)
    slots = _slots(cert, [])
    pick = st.integers(0, len(slots) - 1)
    src_node, src_key = slots[data.draw(pick)]
    dst_node, dst_key = slots[data.draw(pick)]
    dst_node[dst_key] = copy.deepcopy(src_node[src_key])
    return json.dumps(cert)
