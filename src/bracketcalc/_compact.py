"""Run-length compressed worms for long step-down iterations.

Step-down traces repeat whole prefixes n+1 times per step, so worm lengths
explode while the set of distinct entries stays small.  This module keeps
the repetition symbolic: a compact worm is a list of items, each either a
run of one repeated entry or a repeated subsequence, with bigint counts.

Order types of compact worms are folded right to left, one item at a
time, with entry order types read less a shift mu, at first 0.  A worm
whose entries are all at least nu is up^nu of the worm of its entries less
nu, and o(up^nu A) = e^nu(o(A)), with e the hyperexponential (Fernandez-
Duque and Joosten, Hyperations of Veblen progressions, 2013).  So an item
whose entries are all above mu is shifted down, with the front of the
suffix, until it holds an entry of type mu.  Then a run of k entries adds
k, and a repeated subsequence takes a closed form over its count, whatever
the count.

The step engine, CompactRunner, bounds the work of a step by two
invariants rather than by a tuned size: every box it builds holds at most
_FANOUT items with its least entry order type recorded, and a step whose
head is a least entry of the leading box takes the rest of that box into
the new prefix without scanning it (see the stepping notes below).  So the
step rate stays flat, over four hundred thousand per second on a 2-core
VM (stepping G2 10**6 times takes 2.0-2.5 s of CPU time, a third of its
steps deleting a top entry in the advance that made it), as long as entry
order types remain short sums (runs of top entries, principal values).
Deeply nested starting worms grow entries whose order types are sums with
one summand per elapsed step, and stepping slows to the cost of that
arithmetic; budgets there should be sized accordingly.

A budgeted descent needs only the front of the worm.  A step replaces the
head entry, or deletes it if it is a top entry; every other entry moves
back, or forward by at most one place.  So two worms that agree on their
first k entries (a worm shorter than k agreeing whole) agree on their
first k - 1 one step on: the head is the same, and so is the first entry
below it when that lies within k, else both prefixes cover those k
entries.  After s of B steps, then, only the first B - s + 1 entries can
still become a head or decide termination.  CompactRunner.descend is the
one place this horizon lives: at each of the first _FANOUT steps, then
whenever the count passes a multiple of _FANOUT, it cuts the state to
that front (CompactRunner.cut), while run(), step() and length stay
exact.  A cut state is exact only in its first keep - t entries t steps
later: past them it holds wrongly copied entries, not just missing ones.
So a caller that needs more of the worm exact up to the last step asks
descend for them: G_witness asks for none, and step_iter for
_DENSE_LIMIT, since its tail worms must be told apart from longer ones.
The memory of a budgeted descent stays bounded whatever the budget.
A cut that the state fills ends the descent: those entries are exact and
a step deletes at most one, so more than the `exact` extra ones survive
to the budget, and top is out of reach.  Deep starts outgrow runnable
budgets in a few steps, each dearer than the last, hence the early cuts.
"""

from __future__ import annotations

from itertools import groupby

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


class CW:
    """A compact worm: a tuple of items (is_run, child, count), each `count`
    copies of the entry with content `child` when is_run, else copies of
    the subsequence `child`, spliced in."""

    __slots__ = ("items", "_length", "_min_o", "_o", "_top")

    def __init__(self, items: tuple):
        self.items = items
        self._length = None
        self._min_o = None
        self._o = None
        self._top = None  # for an entry led by a top entry: see _entry_step

    def min_o(self) -> Ordinal:
        # minimum entry order type; only called on nonempty worms
        if self._min_o is None:
            best = None
            for is_run, child, _count in self.items:
                v = o_cw(child) if is_run else child.min_o()
                if best is None or cmp(v, best) < 0:
                    best = v
            self._min_o = best
        return self._min_o


EMPTY = CW(())


# --- conversion --------------------------------------------------------------


def from_bracket(w: BracketWorm) -> CW:
    # post-order with an explicit stack, since worms nest thousands deep;
    # equal entries share one compact worm, and each block of equal
    # adjacent entries becomes one run.  No other step merges runs: a
    # compact worm is kept as the split or step that built it left it
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
        items = tuple(
            (True, built[e], len(list(g))) for e, g in groupby(cur.entries)
        )
        built[cur] = CW(items) if items else EMPTY
    return built[w]


def _size(cw: CW, cap: int | None = None) -> int:
    """The number of entries of cw, or cap + 1 when it has more than cap.

    A post-order walk with an explicit stack, since repetition chains nest
    one level per step, that caches every count it completes.  Every item
    holds an entry, so neither an item count nor an inner worm outnumbers
    the whole: the walk stops at the first one above cap.
    """
    stack = [cw]
    while stack:
        c = stack[-1]
        if c._length is None:
            pending = []
            for is_run, child, count in c.items:
                if cap is not None and count > cap:
                    return cap + 1
                if not is_run and child._length is None:
                    pending.append(child)
            if pending:
                stack.extend(pending)
                continue
            c._length = sum(
                count * (1 if is_run else child._length)
                for is_run, child, count in c.items
            )
        if cap is not None and c._length > cap:
            return cap + 1
        stack.pop()
    return cw._length


def to_bracket(cw: CW, limit: int = 1 << 20):
    """Materialize as a plain worm, or None when it exceeds `limit` entries."""
    if _size(cw, limit) > limit:
        return None
    # post-order with an explicit stack, since entries nest thousands deep;
    # keyed by id, since compact worms are not interned
    built: dict = {}
    stack = [cw]
    while stack:
        c = stack[-1]
        if id(c) in built:
            stack.pop()
            continue
        pending = [child for _r, child, _k in c.items if id(child) not in built]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        entries: list = []
        for is_run, child, count in c.items:
            got = built[id(child)]
            entries.extend([got] * count if is_run else got.entries * count)
        built[id(c)] = BracketWorm(tuple(entries))
    return built[id(cw)]


# --- head operations ----------------------------------------------------------


def take_head(items: list) -> CW:
    """Remove the leading entry of a nonempty item list in place and return
    its content, unrolling one copy of each leading repeated subsequence."""
    is_run, child, count = items[0]
    while not is_run:
        repl = list(child.items)
        if count > 1:
            repl.append((False, child, count - 1))
        items[0:1] = repl
        is_run, child, count = items[0]
    if count > 1:
        items[0] = (True, child, count - 1)
    else:
        del items[0]
    return child


def split_below(items, threshold: Ordinal):
    """Split an item list before its first entry with order type < threshold.

    Returns (prefix items, suffix items or None when no entry is below).
    One pass down the split path: a repeated subsequence holding the split
    point is opened in place, and what follows it at each level is kept
    aside until the innermost level closes the suffix.  A repeated
    subsequence whose first item is a run below the threshold starts the
    suffix as it is, sharing its child and the order types cached on it.
    """
    prefix: list = []
    outer: list = []  # per opened level: the items following it there
    while True:
        for i, (is_run, child, count) in enumerate(items):
            if is_run:
                low = child._o
                if low is None:
                    low = o_cw(child)
            else:
                low = child._min_o
                if low is None:
                    low = child.min_o()
            # ordinals are interned, so `is` settles most items of a scan
            if low is threshold or cmp(low, threshold) >= 0:
                continue
            prefix.extend(items[:i])
            if not is_run:
                lead_run, lead, _k = child.items[0]
            if is_run or lead_run and (lead._o is low or cmp(o_cw(lead), threshold) < 0):
                # the very first entry is the split point
                suffix = list(items[i:])
                for rest in reversed(outer):
                    suffix.extend(rest)
                return prefix, suffix
            rest = [(False, child, count - 1)] if count > 1 else []
            rest.extend(items[i + 1:])
            outer.append(rest)
            items = child.items
            break
        else:
            # an opened subsequence always holds an entry below threshold
            assert not outer
            prefix.extend(items)
            return prefix, None


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
    # the z with hyper_exp(xi, z) = s; the fold calls it only with
    # xi <= _block_min(s), which puts s in the range of e**xi by the shift
    # lemma: a factor of val's level is inverted, one of lower level fixes val
    val = s
    for t in xi.terms:
        vt = val.terms[0]
        if cmp(vt.level, log_principal(Ordinal((t,)))) == 0:
            val = add(ONE, vt.arg)
    for _ in range(xi.fin):
        val = log_principal(val)
    return val


def _split_last_zero(seq: CW, mu: Ordinal):
    """Split the items of seq at its last entry of type mu, as (the items
    up to that entry, the items after it); seq must hold one."""
    items = seq.items
    for i in range(len(items) - 1, -1, -1):
        is_run, child, count = items[i]
        low = o_cw(child) if is_run else child.min_o()
        if cmp(low, mu) > 0:
            continue
        if is_run:
            # the last copy of this run is the split point
            return list(items[:i + 1]), list(items[i + 1:])
        ih, ib = _split_last_zero(child, mu)
        h = list(items[:i])
        if count > 1:
            h.append((False, child, count - 1))
        return h + ih, ib + list(items[i + 1:])


def _fold_items(items, val: Ordinal, mu: Ordinal = ZERO) -> Ordinal:
    """Order type of `items` in front of a worm of type val, each entry
    type read as left_sub(mu, .); every entry type is at least mu."""
    for it in reversed(items):
        val = _fold_item(it, val, mu)
    return val


def _fold_item(it: tuple, val: Ordinal, mu: Ordinal) -> Ordinal:
    is_run, child, count = it
    low = o_cw(child) if is_run else child.min_o()
    # shift down until the item holds an entry of type mu: the value is
    # p + e^nu(...) for each (p, nu) here, innermost last
    outer: list = []
    while cmp(low, mu) > 0:
        if not val.terms or val.fin:
            # the suffix is empty or starts with a zero entry
            outer.append((val, left_sub(mu, low)))
            val, mu = ZERO, low
        elif len(val.terms) >= 2:
            # the suffix is the block of the last term of val, a zero entry,
            # then the rest
            outer.append((Ordinal(val.terms[:-1], 1), ZERO))
            val = Ordinal(val.terms[-1:])
        else:
            nu = _block_min(val)
            m = left_sub(mu, low)
            if cmp(m, nu) < 0:
                nu = m
            outer.append((ZERO, nu))
            val, mu = _logdown(val, nu), add(mu, nu)
    if is_run:
        val = add(val, nat(count))
    else:
        val = _seq_over(child, count, val, mu)
    for p, nu in reversed(outer):
        val = add(p, hyper_exp(nu, val))
    return val


def _seq_over(seq: CW, k: int, val: Ordinal, mu: Ordinal) -> Ordinal:
    """Order type of `seq` repeated k times in front of type-val suffix,
    each entry type read as left_sub(mu, .); seq holds an entry of type mu."""
    h, b = _split_last_zero(seq, mu)
    cs = _fold_items(h, ZERO, mu)
    y = add(_fold_items(b, val, mu), cs)
    if k == 1:
        return y
    if cs.fin:
        # successor constant: from the second application on, the value is
        # a successor and each round adds o(B) + cs
        d = add(_fold_items(b, ZERO, mu), cs)
        return add(y, mul_nat(d, k - 1))
    # limit constant: every later value ends in the last term of cs
    t_star = Ordinal((cs.terms[-1],))
    d_full = add(ONE, add(_fold_items(b, t_star, mu), cs))
    d_pref = Ordinal(d_full.terms[:-1])
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
# after the head window.  It keeps the worm as a mutable list of leading
# items (the active zone, where the head is taken) plus a stack of cold
# tail segments, merged pairwise into binary boxes as they accumulate, so
# the stack stays logarithmic in the number of steps.  Only what overflows
# the active zone goes cold: a step keeps its suffix behind the new prefix
# while the two fit in _FANOUT items, and opening a leading box keeps what
# follows it while the two fit in one box.  So the active zone holds at
# most _FANOUT + 1 items, and a suffix is not pushed only to be popped
# back by the next step.  A step's prefix scan is split_below over the
# active zone and then over popped cold segments, each as one item.  Two
# invariants bound the work of a step, whatever the step count:
#
# 1. Every box the runner builds holds at most _FANOUT items and has its
#    _min_o set when it is built: the prefix of a step, each suffix pushed
#    to the cold stack, and a long start list.  So split_below decides an
#    item with one cmp, or none when its least entry type is the threshold
#    itself or, below it, is that of the box's leading run (ordinals are
#    interned, so `is`), opens at most _FANOUT items per level, and never
#    calls min_o() recursively.  In every split, _entry_step's too, a
#    repeated subsequence that starts with the split point goes to the
#    suffix whole, not unrolled: it shares its child, whose _o and _min_o
#    stay cached, where unrolled copies would be folded item by item.
# 2. A step whose head is a least entry of the leading box (the stepped
#    head of every prefix is) takes the rest of that box and its other
#    copies into the new prefix unscanned: none of them is below the head.
#
# The new prefix is that known part followed by what the scan collected.
# Only when together they reach _FANOUT items are they put into boxes, and
# the known part's boxes go into the new boxes whole, so a prefix reuses
# the boxes of the last one instead of opening them.
#
# Deleting a top entry depends on neither n nor what follows it.  So one
# advance deletes top entries beyond its first step, up to the step limit
# the caller passes: a step whose stepped head is a top entry deletes it
# at once, so the new prefix has one copy opened in front of n copies (G2
# steps its heads (()()), (()), top, and deletes that top one step in
# three); a step to a run of n + 1 top entries deletes them too; and a
# top entry taken as the head takes the rest of a run of them that leads
# the active zone.  run() and descend() pass the steps left, so step
# counts and termination stay exact.  The state i steps before the end
# of a k-step advance is its end state with i top entries in front.  A
# deletion may empty the active zone; the next step refills it from the
# cold stack.
#
# Items are plain tuples (is_run, child, count), read by unpacking: a step
# builds one or two, and a class or a namedtuple costs several times a
# tuple to construct.

_FANOUT = 16


def _box(items, spare: int = 0) -> tuple:
    """Group items into annotated boxes of at most _FANOUT items,
    level by level, until at most _FANOUT - spare items remain."""
    while len(items) > _FANOUT - spare:
        parts = -(-len(items) // _FANOUT)
        size = -(-len(items) // parts)
        boxes = []
        for i in range(0, len(items), size):
            box = CW(tuple(items[i:i + size]))
            box.min_o()
            boxes.append((False, box, 1))
        items = boxes
    return tuple(items)


def snapshot_cw(active: tuple, cold, tops: int = 0) -> CW:
    """The compact worm of a runner state: `tops` top entries, its active
    items and its cold (segment, weight) pairs, nearest last."""
    # active items are live and cold segments nonempty, which is all a
    # compact worm needs
    lead = ((True, EMPTY, tops),) if tops else ()
    return CW(lead + active + tuple((False, seg, 1) for seg, _w in reversed(cold)))


def _front(items, keep: int):
    """Cut an item list to its first `keep` entries.

    Returns the kept items and how many of `keep` the list did not fill; a
    list that fits is returned as it is.  One pass down the cut path: items
    are kept whole while they fit, then a run is capped, a repeated
    subsequence keeps the copies that fit whole, and the next copy is
    opened and cut the same way.  Every box rebuilt on the way records its
    length and its least entry order type, which only its kept items set.
    """
    levels: list = []  # per opened level: the items kept before it, its size
    while True:
        kept: list = []
        for it in items:
            is_run, child, count = it
            # keep + 1 when not one copy fits
            size = 1 if is_run else _size(child, keep)
            if count * size <= keep:
                kept.append(it)
                keep -= count * size
                continue
            whole = keep // size
            if whole:
                kept.append((is_run, child, whole))
                keep -= whole * size
            break
        else:
            # an opened copy always holds more than what is left to keep
            assert not levels
            return items, keep
        if is_run or not keep:
            break
        levels.append((kept, keep))
        items = child.items
    while levels:
        outer, size = levels.pop()
        box = CW(tuple(kept))
        box._length = size
        box.min_o()
        kept = outer + [(False, box, 1)]
    return kept, 0


class CompactRunner:
    """Budgeted step-down iteration over compact worms."""

    def __init__(self, start: BracketWorm):
        cw = from_bracket(start)
        self.active: list = list(_box(cw.items))
        self.cold: list = []  # list of (segment CW, weight), nearest last
        self.steps = 0

    # -- state views

    @property
    def finished(self) -> bool:
        return not self.active and not self.cold

    def as_cw(self) -> CW:
        return snapshot_cw(tuple(self.active), self.cold)

    @property
    def length(self) -> int:
        return _size(self.as_cw())

    # -- cold stack helpers

    def _push_cold(self, items: list) -> None:
        # items: a nonempty list of live items
        seg = CW(_box(items))
        seg.min_o()
        weight = 1
        while self.cold and self.cold[-1][1] <= weight:
            other, w = self.cold.pop()
            seg = CW(((False, seg, 1), (False, other, 1)))
            seg.min_o()
            weight += w
        self.cold.append((seg, weight))

    # -- the step itself

    def _take_head(self):
        """Remove the leading entry; return its content and the items that
        join the next prefix unscanned (invariant 2)."""
        active = self.active
        while True:
            is_run, child, count = active[0]
            if is_run:
                if count > 1:
                    active[0] = (True, child, count - 1)
                else:
                    del active[0]
                return child, ()
            lead_run, lead, lead_count = child.items[0]
            if lead_run and lead.items and child._min_o is o_cw(lead):
                # nothing in the rest of the box or in its other copies is
                # below the head (ordinals are interned, so `is`)
                known = child.items[1:]
                if lead_count > 1:
                    known = ((True, lead, lead_count - 1),) + known
                if count > 1:
                    known += ((False, child, count - 1),)
                del active[0]
                return lead, known
            # open the box; what follows it stays in the active zone while
            # the two fit in one box, else it waits on the cold stack
            opened = list(child.items)
            if count > 1:
                opened.append((False, child, count - 1))
            if len(active) > 1 and len(opened) + len(active) > _FANOUT + 1:
                self._push_cold(active[1:])
                del active[1:]
            active[:1] = opened

    def step(self, limit: int = 1) -> int:
        """Advance by at most `limit` >= 1 steps and return how many.

        One step, and with limit > 1 the top entries it leaves in front:
        a stepped head that is a top entry is deleted in the same advance,
        and a run of top entries that the step deleted the first of, or
        stepped the head to, loses up to limit - 1 more.
        """
        self.steps += 1
        n = self.steps
        while not self.active:
            self.active = list(self.cold.pop()[0].items)
        h, known = self._take_head()
        tops = not h.items  # the active zone may lead with a top run
        if not tops:
            stepped, head = _entry_step(h, n)
            threshold = o_cw(h)
            # scan for the first entry strictly below the head: the rest of
            # the active zone, then whole cold segments
            scanned: list = []
            items = self.active
            while True:
                pre, suffix = split_below(items, threshold)
                scanned.extend(pre)
                if suffix is not None or not self.cold:
                    break
                items = [(False, self.cold.pop()[0], 1)]
            rest = _box(known + tuple(scanned), 1)
            if not rest:
                active = [(True, stepped, n + 1)]
                tops = not stepped.items
            else:
                # everything after the stepped head is at least the old head
                bpref = CW((head,) + rest)
                bpref._min_o = o_cw(stepped)
                if limit > 1 and not stepped.items:
                    # step n + 1 deletes the stepped top entry; rest, which
                    # holds no top entry, then leads
                    active = [*rest, (False, bpref, n)]
                    self.steps += 1
                else:
                    active = [(False, bpref, n + 1)]
            if suffix:
                # the suffix follows the new prefix; only overflow goes cold
                if len(active) + len(suffix) <= _FANOUT:
                    active.extend(suffix)
                else:
                    self._push_cold(suffix)
            self.active = active
        if tops and limit > 1 and self.active:
            is_run, child, count = self.active[0]
            if is_run and not child.items:
                more = min(count, limit - 1)
                if more < count:
                    self.active[0] = (True, child, count - more)
                else:
                    del self.active[0]
                self.steps += more
        return self.steps - n + 1

    def cut(self, keep: int) -> bool:
        """Truncate the state to its first `keep` entries: the active items,
        then the cold segments nearest first; segments past the cut go.
        True when the state held at least `keep` entries."""
        self.active, keep = _front(self.active, keep)
        cold = self.cold
        i = len(cold)
        while keep and i:
            i -= 1
            seg, weight = cold[i]
            ((_r, seg, _k),), keep = _front(((False, seg, 1),), keep)
            cold[i] = (seg, weight)
        del cold[:i]
        return not keep

    def run(self, budget: int) -> bool:
        """Advance until top or until `budget` total steps, with the top
        entries an advance deletes cut at the budget; True if done."""
        while not self.finished and self.steps < budget:
            self.step(budget - self.steps)
        return self.finished

    def descend(self, budget: int, exact: int = 0):
        """Advance as run() does, yielding each advance's step count, which
        counts the top entries it deleted after its first step (a stepped
        top entry, a run of them); at each of the first _FANOUT steps, then
        each time the step count passes a multiple of _FANOUT, cut the state
        to the entries the steps left can reach, plus `exact` more (the
        budget horizon), and stop when the state fills the cut."""
        # self.finished inlined: its call would cost more than the limit
        while (self.active or self.cold) and self.steps < budget:
            k = self.step(budget - self.steps)
            yield k
            if self.steps < _FANOUT or self.steps % _FANOUT < k:
                if self.cut(budget - self.steps + 1 + exact):
                    return


def _entry_step(h: CW, n: int) -> tuple:
    """One fundamental-sequence step of a nonempty entry content worm, as
    (h{n}, a one-entry run of h{n}).

    Stepping h steps its leading entry first, and that one its own, down to
    a leading top entry; the chain is walked with an explicit stack, since
    entries nest thousands deep.  An entry led by a top entry keeps its
    step in `_top`, since dropping the top entry does not depend on n.
    """
    chain: list = []  # per level: the items after the leading entry, and it
    cur = h
    while True:
        if cur._top is not None:
            stepped, run = cur._top
            break
        items = list(cur.items)
        inner = take_head(items)
        if not inner.items:
            stepped = CW(tuple(items)) if items else EMPTY
            run = (True, stepped, 1)
            cur._top = stepped, run
            break
        chain.append((items, inner))
        cur = inner
    while chain:
        items, inner = chain.pop()
        prefix, suffix = split_below(items, o_cw(inner))
        if prefix:
            lead = (False, CW((run, *prefix)), n + 1)
        else:
            lead = (True, stepped, n + 1)
        stepped = CW((lead, *(suffix or ())))
        run = (True, stepped, 1)
    return stepped, run
