"""Run-length compressed worms for long step-down iterations.

Step-down traces repeat whole prefixes n+1 times per step, so worm lengths
explode while the set of distinct entries stays small.  This module keeps
the repetition symbolic: a compact worm is a list of items, each either a
run of one repeated entry or a repeated subsequence, with bigint counts.

Order types of compact worms are evaluated with closed forms over the
repetition counts (runs of equal entries, repeated subsequences containing
a zero entry).  Repeated zero-free subsequences have no additive closed
form; those fall back to pointwise iteration below a cap and are not
produced by the workloads this engine exists for.

The step rate stays in the tens of thousands per second as long as entry
order types remain short sums (runs of top entries, principal values).
Deeply nested starting worms grow entries whose order types are sums with
one summand per elapsed step, and stepping slows to the cost of that
arithmetic; budgets there should be sized accordingly.
"""

from __future__ import annotations

from .ordinals import (
    ONE,
    ZERO,
    Ordinal,
    add,
    cmp,
    hyper_exp,
    left_sub,
    log_principal,
    mul_nat,
    nat,
    omega_pow,
)
from .syntax import BracketWorm

_FLATTEN_CAP = 4096
_CHAIN_CAP = 4096


class CompactionLimit(RuntimeError):
    """The trace left the envelope this representation can evaluate."""


class Item:
    __slots__ = ("is_run", "child", "count")

    def __init__(self, is_run: bool, child: "CW", count: int):
        # is_run: `count` copies of the single entry with content `child`
        # else:   `count` copies of the subsequence `child`, spliced in
        self.is_run = is_run
        self.child = child
        self.count = count

    def length(self) -> int:
        return self.count if self.is_run else self.child.length * self.count


class CW:
    """A compact worm: a tuple of items."""

    __slots__ = ("items", "_length", "_min_o", "_o")

    def __init__(self, items: tuple):
        self.items = items
        self._length = None
        self._min_o = None
        self._o = None

    @property
    def length(self) -> int:
        if self._length is None:
            # repetition chains nest one level per step, so walk iteratively
            stack = [self]
            while stack:
                cw = stack[-1]
                pending = [
                    it.child
                    for it in cw.items
                    if not it.is_run and it.child._length is None
                ]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                if cw._length is None:
                    cw._length = sum(
                        it.count * (1 if it.is_run else it.child._length)
                        for it in cw.items
                    )
        return self._length

    def min_o(self) -> Ordinal:
        # minimum entry order type; only called on nonempty worms
        if self._min_o is None:
            best = None
            for it in self.items:
                v = o_cw(it.child) if it.is_run else it.child.min_o()
                if best is None or cmp(v, best) < 0:
                    best = v
            self._min_o = best
        return self._min_o


EMPTY = CW(())


def _mk(items: list) -> CW:
    """Normalize an item list: drop dead items, merge equal adjacent runs."""
    out: list = []
    last = None
    for it in items:
        if it.count <= 0 or (not it.is_run and not it.child.items):
            continue
        if not it.is_run and len(it.child.items) == 1:
            # push the count into a lone inner item
            inner = it.child.items[0]
            it = Item(inner.is_run, inner.child, inner.count * it.count)
        if last is not None and last.is_run and it.is_run and last.child is it.child:
            last = Item(True, it.child, last.count + it.count)
            out[-1] = last
        else:
            out.append(it)
            last = it
    return CW(tuple(out)) if out else EMPTY


# --- conversion --------------------------------------------------------------


def from_bracket(w: BracketWorm) -> CW:
    # post-order with an explicit stack, since worms nest thousands deep;
    # equal entries share one compact worm
    built: dict = {}
    stack = [w]
    while stack:
        cur = stack[-1]
        if cur in built:
            stack.pop()
            continue
        pending = [e for e in cur.entries if e not in built]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        built[cur] = _mk([Item(True, built[e], 1) for e in cur.entries])
    return built[w]


def to_bracket(cw: CW, limit: int = 1 << 20):
    """Materialize as a plain worm, or None when it exceeds `limit` entries."""
    if cw.length > limit:
        return None
    memo: dict = {}

    def build(c: CW) -> BracketWorm:
        got = memo.get(id(c))
        if got is not None:
            return got
        entries: list = []
        for it in c.items:
            if it.is_run:
                entry = build(it.child)
                entries.extend([entry] * it.count)
            else:
                seq = build(it.child)
                entries.extend(seq.entries * it.count)
        out = BracketWorm(tuple(entries))
        memo[id(c)] = out
        return out

    return build(cw)


# --- head operations ----------------------------------------------------------


def take_head(items: list) -> CW:
    """Remove the leading entry of a nonempty item list in place and return
    its content, unrolling one copy of each leading repeated subsequence."""
    it = items[0]
    while not it.is_run:
        repl = list(it.child.items)
        if it.count > 1:
            repl.append(Item(False, it.child, it.count - 1))
        items[0:1] = repl
        it = items[0]
    if it.count > 1:
        items[0] = Item(True, it.child, it.count - 1)
    else:
        del items[0]
    return it.child


def split_below(items, threshold: Ordinal):
    """Split an item list before its first entry with order type < threshold.

    Returns (prefix items, suffix items or None when no entry is below,
    least entry order type of the prefix or None when the prefix is empty).
    One pass down the split path: a repeated subsequence holding the split
    point is opened in place, and what follows it at each level is kept
    aside until the innermost level closes the suffix.
    """
    prefix: list = []
    outer: list = []  # per opened level: the items following it there
    low_min = None
    while True:
        for i, it in enumerate(items):
            child = it.child
            if it.is_run:
                low = child._o
                if low is None:
                    low = o_cw(child)
            else:
                low = child._min_o
                if low is None:
                    low = child.min_o()
            if cmp(low, threshold) >= 0:
                if low_min is None or cmp(low, low_min) < 0:
                    low_min = low
                continue
            prefix.extend(items[:i])
            if it.is_run:
                # the very first copy is the split point
                suffix = list(items[i:])
                for rest in reversed(outer):
                    suffix.extend(rest)
                return prefix, suffix, low_min
            rest = [Item(False, child, it.count - 1)] if it.count > 1 else []
            rest.extend(items[i + 1:])
            outer.append(rest)
            items = child.items
            break
        else:
            # an opened subsequence always holds an entry below threshold
            assert not outer
            prefix.extend(items)
            return prefix, None, low_min


# --- order types ---------------------------------------------------------------


def _wmin(x: Ordinal) -> Ordinal:
    # min entry of the canonical worm of x, for x >= 1
    if x.fin or len(x.terms) >= 2:
        return ZERO
    return _block_min(x)


def _block_min(s: Ordinal) -> Ordinal:
    # min entry of the canonical block worm of a principal infinite s
    t = s.terms[0]
    if t.level.is_zero():
        return add(ONE, _wmin(t.arg))
    return add(omega_pow(t.level), _wmin(add(ONE, t.arg)))


def _logdown(s: Ordinal, xi: Ordinal) -> Ordinal:
    # the z with hyper_exp(xi, z) = s; s must be in the range of e**xi
    val = s
    for t in xi.terms:
        eta = log_principal(Ordinal((t,)))
        vt = val.terms[0]
        c = cmp(vt.level, eta)
        if c == 0:
            val = add(ONE, vt.arg)
        elif c > 0:
            pass  # val is a fixpoint of this factor
        else:
            raise CompactionLimit("value outside hyperexponential range")
    for _ in range(xi.fin):
        if not val.terms:
            raise CompactionLimit("value outside exponential range")
        val = log_principal(val)
    return val


def _run_over(xi: Ordinal, k: int, val: Ordinal) -> Ordinal:
    """Order type of <xi> repeated k times in front of a worm of type val."""
    if xi.is_zero():
        return add(val, nat(k))
    if val.is_zero():
        return hyper_exp(xi, nat(k))
    if val.fin:
        # the canonical suffix worm starts with a zero entry
        return add(val, hyper_exp(xi, nat(k)))
    if len(val.terms) >= 2:
        t = Ordinal((val.terms[-1],))
        trunc = Ordinal(val.terms[:-1])
        return add(trunc, add(ONE, _run_block(xi, k, t)))
    return _run_block(xi, k, val)


def _run_block(xi: Ordinal, k: int, s: Ordinal) -> Ordinal:
    # order type of <xi>^k followed by the canonical block of principal s
    ms = _block_min(s)
    if cmp(xi, ms) <= 0:
        z = _logdown(s, xi)
        return hyper_exp(xi, add(z, nat(k)))
    z = _logdown(s, ms)
    return hyper_exp(ms, _run_over(left_sub(ms, xi), k, z))


def _split_last_zero(seq: CW):
    """Split items as (H ending with the last zero entry, trailing items B).

    Returns None when the sequence has no zero entry.
    """
    items = list(seq.items)
    for i in range(len(items) - 1, -1, -1):
        it = items[i]
        low = o_cw(it.child) if it.is_run else it.child.min_o()
        if cmp(low, ZERO) > 0:
            continue
        if it.is_run:
            # the last copy of this zero run is the split point
            h = items[:i] + [it]
            b: list = []
        else:
            inner = _split_last_zero(it.child)
            assert inner is not None
            ih, ib = inner
            h = items[:i]
            if it.count > 1:
                h.append(Item(False, it.child, it.count - 1))
            h.extend(ih.items)
            b = list(ib.items)
        return _mk(h), _mk(b + items[i + 1:])
    return None


def _fold_items(items, val: Ordinal) -> Ordinal:
    for it in reversed(items):
        if it.is_run:
            val = _run_over(o_cw(it.child), it.count, val)
        else:
            val = _seq_over(it.child, it.count, val)
    return val


def _seq_over(seq: CW, k: int, val: Ordinal) -> Ordinal:
    """Order type of `seq` repeated k times in front of type-val suffix."""
    if k == 0 or not seq.items:
        return val
    if seq.length * k <= _FLATTEN_CAP or k <= 2:
        for _ in range(k):
            val = _fold_items(seq.items, val)
        return val
    parts = _split_last_zero(seq)
    if parts is None:
        # zero-free repeated segment: no additive closed form; iterate with
        # a cap (the long-run workloads never produce this shape)
        if k > _CHAIN_CAP:
            raise CompactionLimit("zero-free repeated segment too long")
        for _ in range(k):
            val = _fold_items(seq.items, val)
        return val
    h, b = parts
    cs = o_cw(h)
    if not b.items:
        return add(val, mul_nat(cs, k))
    y = add(_fold_items(b.items, val), cs)
    if k == 1:
        return y
    if cs.fin:
        # successor constant: from the second application on, the value is
        # a successor and each round adds o(B) + cs
        d = add(o_cw(b), cs)
        return add(y, mul_nat(d, k - 1))
    # limit constant: every later value ends in the last term of cs
    t_star = Ordinal((cs.terms[-1],))
    d_full = add(ONE, add(_fold_items(b.items, t_star), cs))
    d_pref = Ordinal(d_full.terms[:-1])
    if d_pref.is_zero():
        raise CompactionLimit("degenerate repeated segment")
    y_base = Ordinal(y.terms[:-1])
    return add(y_base, add(mul_nat(d_pref, k - 2), d_full))


def o_cw(cw: CW) -> Ordinal:
    """The order type of a compact worm."""
    if cw._o is None:
        cw._o = _fold_items(cw.items, ZERO)
    return cw._o


# --- stepping ------------------------------------------------------------------
#
# The runner is the step engine behind G_witness and every step_iter step
# after the head window.  It keeps the worm as a short mutable list of
# leading items (the active zone, where take_head consumes entries) plus a
# stack of cold tail segments.  Cold segments are merged pairwise into
# binary boxes as they accumulate, so the stack and every box tree stay
# logarithmic in the number of steps.  A step's prefix scan is split_below
# over the active zone and then over popped cold segments, each as one
# item, so whole boxes are skipped via their min-order annotations.  The
# collected prefix is annotated the same way.  Once the head is unrolled,
# the active zone is trimmed to _ACTIVE_CAP items.

_ACTIVE_CAP = 48


def _box2(a: CW, b: CW) -> CW:
    return CW((Item(False, a, 1), Item(False, b, 1)))


def snapshot_cw(active: tuple, cold) -> CW:
    """The compact worm of a runner state: its active items and its cold
    (segment, weight) pairs, nearest last."""
    # active items are live and cold segments nonempty, which is all a
    # compact worm needs, so this skips the _mk pass
    return CW(active + tuple(Item(False, seg, 1) for seg, _w in reversed(cold)))


class CompactRunner:
    """Budgeted step-down iteration over compact worms."""

    def __init__(self, start: BracketWorm):
        cw = from_bracket(start)
        self.active: list = list(cw.items)
        self.cold: list = []  # list of (segment CW, weight), nearest last
        self.steps = 0
        self._cache: dict = {}

    # -- state views

    @property
    def finished(self) -> bool:
        return not self.active and not self.cold

    def as_cw(self) -> CW:
        return snapshot_cw(tuple(self.active), self.cold)

    @property
    def length(self) -> int:
        return sum(it.length() for it in self.active) + sum(
            seg.length for seg, _w in self.cold
        )

    # -- cold stack helpers

    def _push_cold(self, seg: CW, weight: int = 1) -> None:
        if not seg.items:
            return
        while self.cold and self.cold[-1][1] <= weight:
            other, w = self.cold.pop()
            seg = _box2(seg, other)
            weight += w
        self.cold.append((seg, weight))

    def _refill_active(self) -> None:
        while not self.active and self.cold:
            seg, w = self.cold.pop()
            if len(seg.items) <= _ACTIVE_CAP:
                self.active = list(seg.items)
            else:
                half = len(seg.items) // 2
                self._push_cold(CW(seg.items[half:]), max(w // 2, 1))
                self._push_cold(CW(seg.items[:half]), max(w // 2, 1))

    def _trim_active(self) -> None:
        if len(self.active) > _ACTIVE_CAP:
            tail = self.active[_ACTIVE_CAP // 2:]
            del self.active[_ACTIVE_CAP // 2:]
            self._push_cold(_mk(tail))

    def _step_entry(self, h: CW, n: int) -> CW:
        # dropping a leading top entry does not depend on the step index
        first = h.items[0]
        key = id(h) if first.is_run and not first.child.items else (id(h), n)
        got = self._cache.get(key)
        if got is None:
            got = (h, _entry_step(h, n, self._step_entry))
            self._cache[key] = got
        return got[1]

    # -- the step itself

    def step(self) -> None:
        self.steps += 1
        n = self.steps
        h = take_head(self.active)
        # unrolling can leave a long active zone: move its tail to the cold
        # stack before the scan, so the prefix takes it as one item
        self._trim_active()
        self._refill_active()
        if h.items:
            stepped = self._step_entry(h, n)
            threshold = o_cw(h)
            # collect the prefix up to the first entry strictly below the
            # head: the rest of the active zone, then whole cold segments
            prefix: list = [Item(True, stepped, 1)]
            pref_min = o_cw(stepped)
            items = self.active
            while True:
                pre, suffix, low = split_below(items, threshold)
                prefix.extend(pre)
                if low is not None and cmp(low, pref_min) < 0:
                    pref_min = low
                if suffix is not None or not self.cold:
                    break
                items = [Item(False, self.cold.pop()[0], 1)]
            bpref = _mk(prefix)
            bpref._min_o = pref_min
            self.active = [Item(False, bpref, n + 1)]
            if suffix:
                self._push_cold(_mk(suffix))

    def run(self, budget: int) -> bool:
        """Advance until top or until `budget` total steps; True if done.

        Runs of leading top entries are consumed in bulk: dropping a top
        entry does not depend on the step index, so a run of k of them is
        exactly k consecutive steps.
        """
        while not self.finished and self.steps < budget:
            it = self.active[0] if self.active else None
            if it is not None and it.is_run and not it.child.items and it.count > 1:
                take = min(it.count - 1, budget - self.steps - 1)
                if take > 0:
                    self.steps += take
                    self.active[0] = Item(True, it.child, it.count - take)
                if self.steps >= budget:
                    break
            self.step()
        return self.finished


def _entry_step(h: CW, n: int, step_entry) -> CW:
    """One fundamental-sequence step of an entry content worm."""
    if not h.items:
        return h
    items = list(h.items)
    inner = take_head(items)
    if not inner.items:
        return _mk(items)
    stepped = step_entry(inner, n)
    prefix, suffix, _low = split_below(items, o_cw(inner))
    bpref = _mk([Item(True, stepped, 1)] + prefix)
    return _mk([Item(False, bpref, n + 1)] + (suffix or []))
