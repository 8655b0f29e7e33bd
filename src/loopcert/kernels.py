"""The loop kernel of the machine (see the runtime module docstring):
run_loop, which takes every remaining iteration of a loop that
runtime._compile_loop builds, in closed form and in one turn of the
machine.  A loop holds only integers, so this module knows nothing of
terms."""

from __future__ import annotations

from typing import Any, Optional, Tuple

# The pieces of a chain that stand for a succ and a pred; a nested rec's
# item i is the piece (r, i), r counting the loop's nested recs.
_B_SUCC, _B_PRED = range(2)


def run_loop(loop: Tuple, acc: Any, k: int, cenv: Any, bound: int) -> Optional[Tuple[int, Any, int]]:
    """Run every remaining iteration of loop (runtime._compile_loop), from
    the one with accumulator acc and counter k up to bound, in the step's
    closure environment cenv, as the runtime module docstring says: the
    counter and the closing tuple of the last iteration and the charge of
    the iterations, or None.  The values that chains start from sit in
    the list x by number: the numerals put there from the loop's
    template, the outer variables read from cenv, and the counter of the
    last iteration at 0.

    First the entry test, which makes the checks of every iteration once:
    acc is a tuple of the loop's arity whose every item is a natural, and
    every outer value the loop reads (the nested recs' bounds among them)
    is a natural; where it fails the kernel returns None at once.  Then
    the nodes, inner recs first.  A nested rec of bound n charges n *
    (cost + 4), cost being its loop's total plus the charges of its own
    nested recs, and maps each item by the n-th power of its chain, in
    which (r, i) is the map of item i of the node's nested rec r.  The
    own node's cost is c, an iteration's charge, and its n the bound - k
    iterations left.  Last, each item of the closing tuple: a chain from
    its own item maps acc's item by its n-th power, and a chain from a
    value maps that value in the last iteration, once."""
    reads, template, nodes = loop
    chains = nodes[-1][2]
    if type(acc) is not tuple or len(acc) != len(chains):
        return None
    for v in acc:
        if type(v) is not int:
            return None
    x = list(template)
    e = cenv
    for gap, n in reads:
        for _ in range(gap):
            e = e[1]
        if type(e[0]) is not int:
            return None
        x[n] = e[0]
    charges, maps = [], []  # of each node in turn
    for n, cost, node_chains, children in nodes:
        for d in children:
            cost += charges[-d]
        if n:  # a nested rec, of bound x[n]
            n = x[n]
        else:  # the loop's own node, the last: every remaining iteration
            n = bound - k
        powers = []
        for origin, pieces in node_chains:
            f = None  # the identity
            if pieces:
                a, b = 0, None
                for p in pieces:
                    a2, b2 = (1, None) if p == _B_SUCC else (-1, 0) if p == _B_PRED else maps[-children[p[0]]][p[1]]
                    b = b2 if b is None else b + a2 if b2 is None else max(b + a2, b2)
                    a += a2
                if origin is not None:  # applied once, in the last iteration
                    f = (a, b)
                else:
                    f = (n * a, None if b is None else b + max(0, (n - 1) * a) if n else 0)
            powers.append(f)
        charges.append(n * (cost + 4))
        maps.append(powers)
    x[0] = bound - 1  # the counter of the last iteration
    value = []
    for (origin, _), f, v in zip(chains, powers, acc):
        if origin is not None:
            v = x[origin]
        if f is not None:
            v += f[0]
            if f[1] is not None and v < f[1]:
                v = f[1]
        value.append(v)
    # the first iteration charges c, each later one c + 4
    return bound - 1, tuple(value), charges[-1] - 4
