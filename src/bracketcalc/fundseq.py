"""Fundamental sequences and step-down iteration.

Bracket worms step via a{n}: drop a leading top entry, otherwise replace the
head by its own step and repeat the prefix up to the first strictly smaller
entry n+1 times.  Ordinals below Gamma_0 step via the usual Veblen-based
case split.  Iterated stepping is budgeted: descent lengths grow far beyond
anything enumerable, so running out of budget is an ordinary outcome.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice

from .ordinals import (
    ONE,
    ZERO,
    Ordinal,
    OrdinalKind,
    add,
    classify,
    cmp,
    mul_nat,
    pred,
    print_ordinal,
    veblen,
    veblen_iter,
)
from .syntax import TOP_WORM, BracketWorm, print_worm
from .worms import first_below, o_star


def fs_bracket(a: BracketWorm, n: int) -> BracketWorm:
    """One fundamental-sequence step a{n}."""
    e = a.entries
    if not e:
        return a
    if e[0] == TOP_WORM:
        return BracketWorm(e[1:])
    split = first_below(e, o_star(e[0]))
    bpref = (fs_bracket(e[0], n),) + e[1:split]
    return BracketWorm(bpref * (n + 1) + e[split:])


class _Record:
    """A read-only value with the fields named in its class's __slots__:
    equality, hash and repr go by class and fields, as a frozen
    dataclass's do, without importing dataclasses at start-up."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if not kwargs and len(args) == len(names):
            for name, value in zip(names, args):
                object.__setattr__(self, name, value)
            return
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError("%s takes the fields %s" % (type(self).__name__, ", ".join(names)))
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % pair for pair in zip(self.__slots__, self._values())),
        )

    def __reduce__(self):
        return type(self), self._values()


class Trace(_Record):
    """A budgeted descent of bracket worms or of ordinals.

    start: a BracketWorm or an Ordinal; the steps are of its type.
    head: the first steps, including the start.  tail: the last steps;
    empty if head covers everything."""

    __slots__ = ("start", "terminated", "steps_used", "budget", "head", "tail")

    @property
    def complete(self) -> bool:
        return len(self.head) == self.steps_used + 1

    @property
    def steps(self) -> tuple:
        """The full trace, only available when it fits in the window."""
        if not self.complete:
            raise ValueError("trace was truncated to a head/tail window")
        return self.head

    def to_json_obj(self) -> dict:
        show = print_ordinal if isinstance(self.start, Ordinal) else print_worm
        return {
            "start": show(self.start),
            "terminated": self.terminated,
            "steps_used": self.steps_used,
            "budget": self.budget,
            "head": [show(x) for x in self.head],
            "tail": [show(x) for x in self.tail],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


# worms larger than this end step_iter's plain head and are left out of
# trace windows
_DENSE_LIMIT = 4096


def step_iter(a: BracketWorm, budget: int, window: int = 64) -> Trace:
    """Iterate a[[n+1]] = a[[n]]{n+1} until top or the budget runs out.

    The first and last `window` worms are recorded, provided they have at
    most _DENSE_LIMIT entries; step counts and termination are always
    exact.  fs_bracket steps the head window, at most `window` calls.  Every
    later step runs on the run-length compressed engine, so budgets in the
    millions stay feasible while the worms grow astronomically long, and
    the engine keeps only the front of the worm that the tail window can
    still see (the budget horizon, see _compact).  Each of its last
    `window` advances is recorded as the state it ends in and its step
    count, sharing the engine's items: the state i steps before the end is
    the recorded one with i top entries in front.  The tail is
    materialized newest first, a state becoming a compact worm only when
    that walk reaches it; the walk stops at the first worm above
    _DENSE_LIMIT entries, so older records are dropped as the run goes.
    """
    if budget < 0 or window < 0:
        raise ValueError("budget and window must be >= 0")
    head = [a]
    cur = a
    steps = 0
    terminated = not cur.entries
    while not terminated and steps < min(budget, window):
        steps += 1
        cur = fs_bracket(cur, steps)
        terminated = not cur.entries
        if len(cur.entries) > _DENSE_LIMIT:
            break
        head.append(cur)
    tail = []
    if not terminated and steps < budget:
        from ._compact import _FANOUT, CompactRunner, _size, snapshot_cw, to_bracket

        # the runner replays the head from the start worm: its state then
        # stays run-length compressed, where from_bracket(cur) is one flat
        # item list that later steps copy and rescan
        runner = CompactRunner(a)
        runner.run(steps)
        # a record is the runner's state as two tuples, which share every
        # item and segment with it, and the advance's step count; only the
        # tail walk builds compact worms
        keep = min(window, budget)
        recent: deque = deque(maxlen=keep)
        # a tail worm is decided by its first _DENSE_LIMIT + 1 entries,
        # which must stay exact up to the last step
        for k in runner.descend(budget, _DENSE_LIMIT):
            if len(recent) > _DENSE_LIMIT and runner.steps % _FANOUT < k:
                # the tail walk stops at a state above _DENSE_LIMIT entries;
                # windows narrower than that skip the check
                if _size(runner.as_cw(), _DENSE_LIMIT) > _DENSE_LIMIT:
                    recent.clear()
            recent.append((tuple(runner.active), tuple(runner.cold), k))
        terminated = runner.finished
        steps = runner.steps
        # the tail is the contiguous run of small worms that ends the trace
        states = (
            snapshot_cw(active, cold, tops)
            for active, cold, k in reversed(recent)
            for tops in range(k)
        )
        for cw in islice(states, keep):
            worm = to_bracket(cw, limit=_DENSE_LIMIT)
            if worm is None:
                break
            tail.append(worm)
        tail.reverse()
    return Trace(
        start=a,
        terminated=terminated,
        steps_used=steps,
        budget=budget,
        head=tuple(head),
        tail=tuple(tail),
    )


def xhat(x: int, alpha: Ordinal) -> int:
    """x+1 at successors, 1 otherwise."""
    return x + 1 if classify(alpha) == OrdinalKind.SUCCESSOR else 1


def fs_veblen(xi: Ordinal, x: int) -> Ordinal:
    """One fundamental-sequence step xi[x] on Veblen normal forms."""
    if xi.is_zero():
        return ZERO
    if xi.fin:
        # a trailing finite part steps straight down by one: the additively
        # decomposable case peels the tail, and phi_0(0) = 1 steps to 0
        return Ordinal(xi.terms, xi.fin - 1)
    if len(xi.terms) > 1:
        # a sum steps through its last term
        return add(Ordinal(xi.terms[:-1]), fs_veblen(Ordinal(xi.terms[-1:]), x))
    a, b = xi.terms[0].level, xi.terms[0].arg
    if a.is_zero():
        # lead = phi_0(b) = omega**b with b >= 1
        if b.fin:
            return mul_nat(veblen(ZERO, pred(b)), x + 2)
        return veblen(ZERO, fs_veblen(b, x))
    if b.is_zero():
        return veblen_iter(fs_veblen(a, x), xhat(x, a), ZERO)
    if b.fin:
        return veblen_iter(fs_veblen(a, x), xhat(x, a), add(veblen(a, pred(b)), ONE))
    return veblen(a, fs_veblen(b, x))


def descend(xi: Ordinal, budget: int, window: int = 64) -> Trace:
    """Iterate xi<n+1> = xi<n>[n+1] until zero or the budget runs out."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if window < 0:
        raise ValueError("window must be >= 0")
    head = [xi]
    tail: deque = deque(maxlen=min(window, budget))
    cur = xi
    steps = 0
    terminated = cur.is_zero()
    while not terminated and steps < budget:
        steps += 1
        cur = fs_veblen(cur, steps)
        if len(head) < window + 1:
            head.append(cur)
        else:
            tail.append(cur)
        terminated = cur.is_zero()
    return Trace(
        start=xi,
        terminated=terminated,
        steps_used=steps,
        budget=budget,
        head=tuple(head),
        tail=tuple(tail),
    )


def gamma(n: int) -> Ordinal:
    """gamma(0) = 0 and gamma(n+1) = phi_{gamma(n)}(0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = ZERO
    for _ in range(n):
        out = veblen(out, ZERO)
    return out


class Found(_Record):
    __slots__ = ("steps",)


class BudgetExhausted(_Record):
    __slots__ = ("steps",)


def F_witness(m: int, budget: int):
    """Least step count bringing gamma(m) down to zero, within budget."""
    trace = descend(gamma(m), budget, window=1)
    if trace.terminated:
        return Found(trace.steps_used)
    return BudgetExhausted(trace.steps_used)


def a_seq(n: int) -> BracketWorm:
    """a(0) = top, a(1) = (), a(n+2) = three brackets around a(n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    w = TOP_WORM if n % 2 == 0 else BracketWorm((TOP_WORM,))
    for _ in range(3 * (n // 2)):
        w = BracketWorm((w,))
    return w


def G_witness(m: int, budget: int):
    """Least k with the primed worm reaching top after k+1 steps."""
    from ._compact import CompactRunner

    if budget < 0:
        raise ValueError("budget must be >= 0")
    runner = CompactRunner(BracketWorm((TOP_WORM,) + a_seq(m).entries))
    for _ in runner.descend(budget):
        pass
    if runner.finished:
        return Found(runner.steps - 1)
    return BudgetExhausted(runner.steps)
