"""The loop kernels of the machine (see the runtime module docstring):
the generator of a loop shape's host function (_kernel), and the sum
of an iteration of a loop that an enclosing loop runs as a nested rec
(_nest).  Both work on shapes, which hold only integers
(runtime._compile_loop), so this module knows nothing of terms."""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple

# The kinds of a loop's op.  Succ, pred and tuple define one value, a
# match as many as its pattern has names, and a nested rec its result
# tuple and then the tuple's items.
_B_SUCC, _B_PRED, _B_TUPLE, _B_MATCH, _B_REC = range(5)


def _nest(reads: Tuple[int, ...], ops: Tuple[Tuple[int, Any, Tuple[int, ...]], ...]) -> Optional[Tuple]:
    """What an iteration of the loop shape (reads, ops) does, for an
    enclosing loop that runs it as a nested rec: (arity, checked, chains,
    recs), or None when the loop is no nested counter loop.

    It is one when every op is a match on acc (always of one arity) or on
    a tuple the iteration built of as many items, a tuple of accumulator
    values, a succ or pred of one, or a nested rec (a _B_REC op, whose
    own _nest this one holds) whose items are accumulator values; when
    the closing tuple puts back into each slot a value made from that
    same slot; and when the counter is read nowhere and the outer
    variables only as the bounds of the nested recs.  An accumulator
    value is an item of acc or a value made from one by succ, pred and
    nested recs, so it is a chain of such maps from one slot.  Then each
    iteration maps slot j by chains[j], the same in every iteration: a
    tuple of pieces, _B_SUCC, _B_PRED or (r, i) for item i of nested rec
    r; an empty chain keeps the slot.  recs lists each nested rec as
    (bound, reads, total, nest): bound is the index into reads of the
    outer variable that bounds it, and reads the indices into reads of
    the inner loop's outer variables.  checked are the slots
    whose item a succ, a pred or a nested rec reads as it is, so that
    the iterations make no check that can fail when those items (and the
    bounds) are naturals."""
    index = {n: i for i, n in enumerate(reads)}
    chain: Dict[int, Tuple[int, Tuple]] = {}  # an accumulator value -> (its slot, its pieces)
    built: Dict[int, Tuple[int, ...]] = {}  # a tuple's value -> its items
    arity, checked, recs = None, set(), []
    *body, (_, closing, _) = ops
    for kind, a, defined in body:
        if kind == _B_MATCH:
            if a == 0 and arity in (None, len(defined)):
                arity = len(defined)
                chain.update([(n, (j, ())) for j, n in enumerate(defined)])
            elif a in built and len(built[a]) == len(defined):
                chain.update(zip(defined, [chain[x] for x in built[a]]))
            else:
                return None
        elif kind == _B_TUPLE:
            if not all([x in chain for x in a]):
                return None
            built[defined[0]] = a
        elif kind == _B_REC:
            bound, base, inner_reads, total, (_, inner_checked, inner_chains, _) = a
            if bound not in index or not all([x in index for x in inner_reads]) or not all([x in chain for x in base]):
                return None
            checked.update([chain[base[j]][0] for j in inner_checked if not chain[base[j]][1]])
            for j, (x, pieces) in enumerate(zip(base, inner_chains)):
                slot, before = chain[x]
                chain[defined[1 + j]] = (slot, before + ((len(recs), j),)) if pieces else (slot, before)
            built[defined[0]] = defined[1:]
            recs.append((index[bound], tuple([index[x] for x in inner_reads]), total, a[4]))
        else:
            if a not in chain:
                return None
            slot, pieces = chain[a]
            if not pieces:
                checked.add(slot)
            chain[defined[0]] = (slot, pieces + (kind,))
    if arity != len(closing) or any([chain.get(x, (None,))[0] != j for j, x in enumerate(closing)]):
        return None
    return arity, tuple(sorted(checked)), tuple([chain[x][1] for x in closing]), tuple(recs)


@functools.lru_cache(maxsize=512)
def _kernel(reads: Tuple[int, ...], ops: Tuple[Tuple[int, Any, Tuple[int, ...]], ...]) -> Callable:
    """The kernel of the loop shape (reads, ops): a host function
    kernel(total, g0, ..., acc, k, cenv, bound, budget) -> (k, value,
    budget, done), where g0, ... are the gaps between the positions of
    the outer variables.  It runs iterations from the one with
    accumulator acc and counter k, in the step's closure environment
    cenv, with budget the fuel left.  The value numbered n is the local
    xn; the outer variables are read from cenv once, before the first
    iteration.  Where a check fails, the kernel returns done = False
    with the iteration's counter, accumulator and budget at its start.
    Otherwise it charges the iteration total, and runs the next one
    while the counter has not reached bound and the budget covers
    total + 4; where it stops, it returns done = True with the last
    iteration's counter, its closing tuple and the budget left.

    A nested rec (_B_REC) makes an iteration's charge hang on its bound:
    before the first iteration the kernel checks that each bound, its
    own and those of the recs nested in it, is a natural n (the check of
    _REC_BASE), and works out from n the charge c of an iteration, total
    + n * (the inner iteration's charge + 4) for each rec, and the map
    that the rec's n iterations make of each item that they change: the
    inner iteration's chain of maps for that item (see _nest), taken to
    the n-th power, or the identity for n = 0.  Where the budget does not
    cover c, it returns done = False at the first iteration's start with
    its budget as it was, so the machine's entry test, which covers only
    total, is enough: single steps then run into the nested rec, whose
    own kernel takes over.  In an iteration a nested rec checks that the
    items the inner loop reads as they are (_nest's checked) are
    naturals, for any n; where one is not, single steps take the
    iteration, and get stuck where the single-step machine does, or run
    it when n = 0.  Then the rec's value is the tuple of the mapped items
    and of the items kept, and the later iterations charge c + 4 for
    total + 4.

    The first iteration is peeled: it makes every check of the single
    steps its ops stand for.  The later ones run in a steady state, where
    the accumulator is the previous iteration's closing tuple, whose
    items stay in the slots, locals numbered from the closing tuple's
    value on; x0 is built from the slots only where an op reads it, and
    the tuple of the slots is the value on exit.  There a match on a
    tuple the iteration built, x0 included, with as many names as it has
    items checks nothing and names its items; a succ or pred checks
    nothing when its operand is a numeral, the counter, a value that a
    succ or pred made, an outer variable that a succ or pred reads, or
    a slot that the closing tuple fills with one of these; a nested rec
    checks nothing when those of its items are such values, and what it
    makes of the items it changes are naturals.  Any other check stays,
    and returns as in the first iteration.  An op whose value no later
    op, check or slot reads is dropped.  When no check is left, the
    kernel charges the later iterations at once: m = min(bound - 1 - k,
    budget // (total + 4)) of them, charged m * (total + 4).  When the
    remaining ops are succs, preds and nested recs, each of their values
    in the one chain that runs from a slot to the closing tuple's item
    for that same slot, a chain being x -> max(x + a, b) (b None: x -> x
    + a; a nested rec's map of an item is one with a and b worked out
    before the first iteration), each such slot takes the m iterations
    at once, x -> max(x + m*a, b + max(0, (m - 1)*a)), as does the
    counter, x1 += m.  Otherwise the kernel runs the remaining ops m
    times, or none when no op is left and the slots keep their values.
    The source holds only the shape's integers (formatted with :d) and
    fixed identifiers.

    Over the 238 shapes that 3,000 programs of `gen` (seed 901) enter, a
    compile takes 0.18 to 0.26 ms (tenth to ninetieth percentile, 2-vCPU
    sandbox) and a kernel keeps about 1.7 KB.  A fuzz campaign brings
    new shapes for as long as it runs, so the cache keeps the latest
    512.  On 14,000 programs of `gen` (seed 901), with 519 shapes among
    them, that compiles 0.037 kernels per program, as an unbounded cache
    does, against 0.044 at 256."""
    *body, (_, closing, _) = ops
    top = 1 + max([1, *reads, *[n for _, _, defined in body for n in defined]])
    slots = tuple(range(top, top + len(closing)))
    lines: List[str] = []

    def atom(a: int) -> str:
        return f"{~a:d}" if a < 0 else f"x{a:d}"

    def items(atoms: Tuple[int, ...]) -> str:
        return "".join([atom(a) + ", " for a in atoms])

    # A map x -> max(x + a, b) (b None: x -> x + a) is a pair (a, b) whose
    # parts are integers or, where they hang on a nested rec's bound, the
    # names of locals that the kernel works out before the first iteration.
    def num(v: Any) -> str:
        return f"{v:d}" if type(v) is int else v

    temps: List[str] = []

    def local(expression: str) -> str:
        temps.append(f"p{len(temps):d}")
        lines.append(f"    {temps[-1]} = {expression}")
        return temps[-1]

    def plus(u: Any, v: Any) -> Any:
        if type(u) is int and type(v) is int:
            return u + v
        return u if v == 0 else v if u == 0 else local(f"{num(u)} + {num(v)}")

    def then(f: Tuple[Any, Any], g: Tuple[Any, Any]) -> Tuple[Any, Any]:
        # f, then g: (a1 + a2, max(b1 + a2, b2))
        (a1, b1), (a2, b2) = f, g
        if b1 is None or b2 is None:
            b = b2 if b1 is None else plus(b1, a2)
        else:
            b1 = plus(b1, a2)
            b = max(b1, b2) if type(b1) is int and type(b2) is int else local(f"max({num(b1)}, {num(b2)})")
        return plus(a1, a2), b

    def chain(pieces: List[Tuple[Any, Any]]) -> Tuple[Any, Any]:
        f: Tuple[Any, Any] = (0, None)
        for g in pieces:
            f = then(f, g)
        return f

    naturals = set()  # the outer variables checked to be naturals

    def nest(n: int, args: Tuple[int, ...], total: int, summary: Tuple) -> Tuple[str, Dict[int, Tuple[Any, Any]]]:
        # A nested rec of bound n (an atom) over the loop that summary
        # sums up (_nest), args being its outer variables: its charge
        # beyond the static one, n * (the inner iteration's charge + 4),
        # and for each slot that its iterations change the map of all n
        # of them, the identity for n = 0.
        if n not in naturals:
            naturals.add(n)
            lines.append(f"    if type({atom(n)}) is not int: return x1, x0, budget, False")
        _, _, chains, recs = summary
        charges, inner = [f"{total:d}"], []
        for bound, reads, inner_total, inner_summary in recs:
            charge, maps = nest(args[bound], tuple([args[i] for i in reads]), inner_total, inner_summary)
            charges.append(charge)
            inner.append(maps)
        cost = local(" + ".join(charges)) if recs else charges[0]
        maps = {}
        for j, pieces in enumerate(chains):
            if pieces:
                a, b = chain([(1, None) if p == _B_SUCC else (-1, 0) if p == _B_PRED else inner[p[0]][p[1]]
                              for p in pieces])
                x = atom(n)
                maps[j] = (local(f"{x} * {num(a)}"),
                           None if b is None else local(f"{num(b)} + max(0, ({x} - 1) * {num(a)}) if {x} else 0"))
        return f"{atom(n)} * ({cost} + 4)", maps

    # the steady state: x0 is built from the slots, a match on a tuple of
    # its own arity names the tuple's items, a nested rec's item that its
    # iterations keep is the item of its tuple, and the closing tuple
    # fills the slots
    same: Dict[int, int] = {}  # value -> the value it is, in a steady iteration
    built: Dict[int, Tuple[int, ...]] = {}  # a tuple's value -> its items
    steady = []
    for kind, a, defined in [(_B_TUPLE, slots, (0,))] + body:
        if kind == _B_TUPLE:
            a = built[defined[0]] = tuple([same.get(x, x) for x in a])
        elif kind == _B_REC:
            bound, base, args, inner_total, summary = a
            base = tuple([same.get(x, x) for x in base])
            a = (bound, base, args, inner_total, summary)
            same.update([(r, x) for r, x, pieces in zip(defined[1:], base, summary[2]) if not pieces])
            built[defined[0]] = tuple([same.get(r, r) for r in defined[1:]])
        else:
            a = same.get(a, a)
            if kind == _B_MATCH and a in built and len(built[a]) == len(defined):
                same.update(zip(defined, built[a]))
                continue
        steady.append((kind, a, defined))
    ends = tuple([same.get(x, x) for x in closing])
    # the values known to be naturals: the counter, what succ and pred
    # make, the items that a nested rec changes, the outer variables that
    # a succ, a pred or a nested rec checks (the first iteration checked
    # them, and they do not change), and the slots that the closing tuple
    # fills with one of these
    counts = [(a, defined) for kind, a, defined in steady if kind == _B_SUCC or kind == _B_PRED]
    ints = {1} | {defined[0] for _, defined in counts} | {a for a, _ in counts if a in reads}
    for kind, a, defined in steady:
        if kind == _B_REC:
            _, checked, chains, _ = a[4]
            ints |= {r for r, pieces in zip(defined[1:], chains) if pieces} | {a[1][j] for j in checked} & set(reads)
    ints |= {s for s, x in zip(slots, ends) if x < 0 or x in ints}
    live, kept = set(ends), []
    for kind, a, defined in reversed(steady):
        if kind == _B_REC:
            operands = a[1]
            check = any([operands[j] >= 0 and operands[j] not in ints for j in a[4][1]])
        else:
            operands = a if kind == _B_TUPLE else (a,)
            check = kind == _B_MATCH or kind != _B_TUPLE and a >= 0 and a not in ints
        used = not live.isdisjoint(defined)
        if check or used:
            kept.append((kind, a, defined, check, used))
            live.update(operands)
    kept.reverse()
    moved = [(s, x) for s, x in zip(slots, ends) if x != s]
    maps: Dict[int, Dict[int, Tuple[Any, Any]]] = {}  # a nested rec's value -> its maps (nest)

    def run(ops: List[Tuple[int, Any, Tuple[int, ...], bool, bool]], indent: str, stuck: str) -> None:
        for kind, a, defined, check, used in ops:
            if kind == _B_TUPLE:
                lines.append(f"{indent}x{defined[0]:d} = ({items(a)})")
            elif kind == _B_MATCH:
                if check:
                    lines.append(f"{indent}if type({atom(a)}) is not tuple or len({atom(a)}) != {len(defined):d}: {stuck}")
                if used and defined:
                    lines.append(f"{indent}{items(defined)}= {atom(a)}")
            elif kind == _B_REC:
                # an item that the inner loop reads as it is must be a
                # natural: else single steps take the iteration, and get
                # stuck where the inner loop runs and the item is no natural
                base, changes = a[1], maps[defined[0]]
                if check:
                    for x in sorted({base[j] for j in a[4][1] if base[j] >= 0}):
                        lines.append(f"{indent}if type({atom(x)}) is not int: {stuck}")
                if used:
                    for j, (x, r) in enumerate(zip(base, defined[1:])):
                        if j not in changes:
                            lines.append(f"{indent}x{r:d} = {atom(x)}")
                        elif changes[j][1] is None:
                            lines.append(f"{indent}x{r:d} = {atom(x)} + {changes[j][0]}")
                        else:
                            lines.append(f"{indent}x{r:d} = max({atom(x)} + {changes[j][0]}, {changes[j][1]})")
                    lines.append(f"{indent}x{defined[0]:d} = ({items(defined[1:])})")
            else:
                if check:
                    lines.append(f"{indent}if type({atom(a)}) is not int: {stuck}")
                if used:
                    count = f"{atom(a)} + 1" if kind == _B_SUCC else f"{atom(a)} - 1 if {atom(a)} > 0 else 0"
                    lines.append(f"{indent}x{defined[0]:d} = {count}")

    def fill(pairs: List[Tuple[int, int]], indent: str) -> None:
        if pairs:
            lines.append(f"{indent}{items([s for s, _ in pairs])}= {items([x for _, x in pairs])}")

    gap_params = "".join([f"g{j:d}, " for j in range(len(reads))])
    lines.append(f"def kernel(total, {gap_params}x0, x1, cenv, bound, budget):")
    if reads:
        lines.append("    e = cenv")
    for j, n in enumerate(reads):
        lines += [f"    for _ in range(g{j:d}): e = e[1]", f"    x{n:d} = e[0]"]
    cost = "total"  # an iteration's charge
    charges = [cost]
    for kind, a, defined in body:
        if kind == _B_REC:
            charge, maps[defined[0]] = nest(a[0], a[2], a[3], a[4])
            charges.append(charge)
    del nest  # a recursive closure is a reference cycle
    if len(charges) > 1:
        # the machine's entry test covers only the static part of the charge
        cost = "c"
        lines += [f"    c = {' + '.join(charges)}", "    if budget < c: return x1, x0, budget, False"]
    run([(kind, a, defined, kind != _B_TUPLE, True) for kind, a, defined in body], "    ",
        "return x1, x0, budget, False")
    lines.append(f"    budget -= {cost}")
    fill(list(zip(slots, closing)), "    ")
    acc = f"({items(slots)})"
    if any(check for _, _, _, check, _ in kept):
        lines += [
            f"    while x1 + 1 != bound and budget >= {cost} + 4:",
            "        budget -= 4",  # returns to _REC_NEXT, _REC_LOOP; the application
            "        x1 += 1",
        ]
        run(kept, "        ", f"return x1, {acc}, budget, False")
        lines.append(f"        budget -= {cost}")
        fill(moved, "        ")
    else:
        lines += [
            f"    m = min(bound - 1 - x1, budget // ({cost} + 4))",
            f"    budget -= m * ({cost} + 4)",
        ]
        # a slot that the closing tuple fills with a chain of succ, pred
        # and nested recs from that same slot takes the chain's map x ->
        # max(x + a, b) an iteration; when every op is in one such chain,
        # m iterations are x -> max(x + m*a, b + max(0, (m - 1)*a)) on each
        # slot.  (A kept tuple's value reaches the closing tuple, so it
        # ends no chain.)
        made: Dict[int, Tuple[Tuple[Any, Any], int]] = {}  # a value -> (its op's map, the op's operand)
        for kind, a, defined, _, _ in kept:
            if kind == _B_SUCC or kind == _B_PRED:
                made[defined[0]] = ((1, None) if kind == _B_SUCC else (-1, 0), a)
            elif kind == _B_REC:
                made.update([(defined[1 + j], (f, a[1][j])) for j, f in maps[defined[0]].items()
                             if defined[1 + j] in live])
        pieces: List[Tuple[int, List[Tuple[Any, Any]]]] = []
        for s, x in moved:
            walked = []  # the chain from x to the closing tuple, walked backwards
            while x in made:
                f, x = made.pop(x)
                walked.append(f)
            if x != s:
                break
            pieces.append((s, walked[::-1]))
        if len(pieces) == len(moved) and not made:
            chains = [(s, *chain(walked)) for s, walked in pieces]
            if chains:
                lines.append("    if m:")
            for s, a, b in chains:
                step = f"x{s:d} + m * {num(a)}"
                lines.append(f"        x{s:d} = {step}" if b is None else
                             f"        x{s:d} = max({step}, {num(b)} + max(0, (m - 1) * {num(a)}))")
            lines.append("    x1 += m")
        else:
            lines.append("    for x1 in range(x1 + 1, x1 + 1 + m):")
            run(kept, "        ", "")
            fill(moved, "        ")
    lines += [f"    return x1, {acc}, budget, True", ""]
    namespace: Dict[str, Any] = {}
    exec(compile("\n".join(lines), "<loop kernel>", "exec"), namespace)
    return namespace.pop("kernel")  # so that an evicted kernel is freed at once
