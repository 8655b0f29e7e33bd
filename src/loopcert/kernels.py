"""The loop kernel of the machine (see the runtime module docstring):
run_loop, an interpreter of the loops that runtime._compile_loop builds.
A loop holds only integers, so this module knows nothing of terms."""

from __future__ import annotations

from typing import Any, Tuple

# The kinds of a loop's op.  Succ, pred and tuple define one value, a
# match as many as its pattern has names, and a nested rec its items and
# then its result tuple.
_B_SUCC, _B_PRED, _B_TUPLE, _B_MATCH, _B_REC = range(5)


def run_loop(loop: Tuple, acc: Any, k: int, cenv: Any, bound: int, budget: int) -> Tuple[Any, Any, int, bool]:
    """Run the iterations of loop (runtime._compile_loop) from the one
    with accumulator acc and counter k, in the step's closure environment
    cenv, with budget the fuel left, as the runtime module docstring
    says: (k, value, budget, done).  The values of an iteration sit in the
    list x by number, the numerals put there from the loop's template and
    the outer variables read from cenv before the first iteration.

    First the nodes, inner recs first.  A nested rec's bound must be a
    natural n, and its n iterations charge n * (cost + 4), cost being its
    loop's total plus the charges of its own nested recs, and map each
    item by the n-th power of its chain, in which (r, i) is the map of
    item i of the node's nested rec r.  The own node's cost is c, an
    iteration's charge.  Where a bound is no natural or the budget does
    not cover c, the kernel returns done = False at once.  Then a counter
    loop runs no op: once acc passes the checks of the first iteration, a
    tuple of the loop's arity whose checked items are naturals, its own
    node takes the 1 + m iterations that the bound and the fuel allow.
    Any other loop runs its ops, one iteration after the other."""
    _, reads, template, ops, nodes, checked = loop
    x = list(template)
    x[0], x[1] = acc, k
    e = cenv
    for gap, n in reads:
        for _ in range(gap):
            e = e[1]
        x[n] = e[0]
    charges, maps = [], []  # of each node in turn
    for n, cost, chains, children in nodes:
        for d in children:
            cost += charges[-d]
        if n:  # a nested rec, of bound x[n]
            n = x[n]
            if type(n) is not int:
                return k, acc, budget, False
        else:  # the loop's own node, the last
            if budget < cost:
                return k, acc, budget, False
            c = cost
            if chains is None:
                break
            # a counter loop: the checks of the first iteration, and then
            # that iteration and the m after it in closed form
            if type(acc) is not tuple or len(acc) != len(chains):
                return k, acc, budget, False
            for j in checked:
                if type(acc[j]) is not int:
                    return k, acc, budget, False
            n = 1 + min(bound - 1 - k, (budget - c) // (c + 4))
        powers = []
        for pieces in chains:
            f = None  # the identity
            if pieces:
                a, b = 0, None
                for p in pieces:
                    a2, b2 = (1, None) if p == _B_SUCC else (-1, 0) if p == _B_PRED else maps[-children[p[0]]][p[1]]
                    b = b2 if b is None else b + a2 if b2 is None else max(b + a2, b2)
                    a += a2
                f = (n * a, None if b is None else b + max(0, (n - 1) * a) if n else 0)
            powers.append(f)
        charges.append(n * (cost + 4))
        maps.append(powers)
    if chains is not None:
        value = list(acc)
        for j, f in enumerate(powers):
            if f is not None:
                value[j] += f[0]
                if f[1] is not None and value[j] < f[1]:
                    value[j] = f[1]
        # the first iteration charges c, each later one c + 4
        return k + n - 1, tuple(value), budget + 4 - charges[-1], True
    while True:
        for kind, a, d in ops:
            if kind < _B_TUPLE:
                v = x[a]
                if type(v) is not int:
                    return k, acc, budget, False
                x[d] = v + 1 if kind == _B_SUCC else v - 1 if v else 0
            elif kind == _B_MATCH:
                v = x[a]
                if type(v) is not tuple or len(v) != len(d):
                    return k, acc, budget, False
                x[d.start:d.stop] = v
            elif kind == _B_TUPLE:
                x[d] = tuple(map(x.__getitem__, a))
            else:
                r, base, checks = a
                for y in checks:
                    if type(x[y]) is not int:
                        return k, acc, budget, False
                for y, f in zip(base, maps[r]):
                    v = x[y]
                    if f is not None:
                        v += f[0]
                        if f[1] is not None and v < f[1]:
                            v = f[1]
                    x[d] = v
                    d += 1
                x[d] = tuple(x[d - len(base):d])
        budget -= c
        acc = x[-1]
        if k + 1 == bound or budget < c + 4:
            return k, acc, budget, True
        budget -= 4  # returns to _REC_NEXT, _REC_LOOP; the application
        k += 1
        x[0], x[1] = acc, k
