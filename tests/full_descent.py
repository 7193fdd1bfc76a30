"""A budgeted descent that steps all the way to the budget.

CompactRunner.descend stops once the worm outlasts the steps left, so a
descent that cannot reach top ends within a few dozen steps.  Tests that
count the engine's work over a long descent drive it through this loop
instead: the same advances and the same cuts to the budget horizon, every
_FANOUT steps, without that stop.
"""

from bracketcalc import TOP_WORM, BracketWorm, _compact, a_seq
from bracketcalc._compact import CompactRunner


def primed(m: int) -> BracketWorm:
    """G_witness's start for m: a top entry in front of a(m)."""
    return BracketWorm((TOP_WORM,) + a_seq(m).entries)


def full_descent(start, budget: int, exact: int = 0, replay: int = 0) -> CompactRunner:
    """Step a runner from `start` to top or to `budget` steps, cutting its
    state to the entries the steps left can reach, plus `exact` more, each
    time the step count passes a multiple of _FANOUT.  The first `replay`
    steps run uncut, as step_iter replays its head window."""
    runner = CompactRunner(start)
    runner.run(replay)
    while not runner.finished and runner.steps < budget:
        k = runner.step(budget - runner.steps)
        if runner.steps % _compact._FANOUT < k:
            runner.cut(budget - runner.steps + 1 + exact)
    return runner
