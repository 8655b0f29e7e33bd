"""The loop kernels of the machine (see the runtime module docstring):
the generator of a loop shape's host function (_kernel), and the sum
of an iteration of a loop (_nest), which a kernel takes in closed form,
for the loop's own later iterations or as a nested rec.  Both work on
shapes, which hold only integers (runtime._compile_loop), so this
module knows nothing of terms."""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple

# The kinds of a loop's op.  Succ, pred and tuple define one value, a
# match as many as its pattern has names, and a nested rec its result
# tuple and then the tuple's items.
_B_SUCC, _B_PRED, _B_TUPLE, _B_MATCH, _B_REC = range(5)


def _nest(reads: Tuple[int, ...], ops: Tuple[Tuple[int, Any, Tuple[int, ...]], ...]) -> Optional[Tuple]:
    """What an iteration of the loop shape (reads, ops) does, for a
    closed form of its iterations, the loop's own after the first or those
    of a nested rec: (arity, checked, chains, recs), or None when the loop
    is no counter loop.

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
    and of the items it leaves as they are, and the later iterations
    charge c + 4 for total + 4.

    An iteration makes every check of the single steps its ops stand
    for.  The kernel runs one, and then ends in one of two ways.  When
    _nest sums up the loop itself, no later iteration has a check that
    can fail: the items that its ops read as they are hold naturals after
    the first iteration, which checked them, and every tuple pattern
    meets a tuple of its arity.  Then the kernel takes the remaining m =
    min(bound - 1 - k, budget // (c + 4)) iterations as a nested rec of
    bound m over the loop's own summary: each item that the loop changes
    takes its chain's m-th power, the budget is charged m * (c + 4) and
    the counter moves on by m.  Otherwise the kernel runs that checked
    iteration again, with acc the previous closing tuple, for as long as
    the counter and the budget allow.  The source holds only the shape's
    integers (formatted with :d) and fixed identifiers.

    Over the 233 shapes that 3,000 programs of `gen` (seed 901) enter, a
    compile takes 0.4 to 0.75 ms (tenth to ninetieth percentile, shared
    2-vCPU sandbox) and a kernel keeps about 1.2 KB; 79 of the shapes
    end in the closed form.  A fuzz campaign brings new shapes for as
    long as it runs, so the cache keeps the latest 512.  On 14,000
    programs of `gen` (seed 901), with 519 shapes among them, that
    compiles 0.037 kernels per program, as an unbounded cache does,
    against 0.044 at 256."""
    *body, (_, closing, _) = ops
    m = 1 + max([1, *reads, *[n for _, _, defined in body for n in defined]])  # the closed form keeps m in the local xm
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

    def mapped(x: int, f: Optional[Tuple[Any, Any]]) -> str:
        # the atom x under the map f, None being the identity
        if f is None:
            return atom(x)
        return f"{atom(x)} + {num(f[0])}" if f[1] is None else f"max({atom(x)} + {num(f[0])}, {num(f[1])})"

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

    naturals = set()  # the atoms checked to be naturals

    @functools.cache
    def nest(n: int, args: Tuple[int, ...], total: Any, summary: Tuple) -> Tuple[str, Dict[int, Tuple[Any, Any]]]:
        # A nested rec of bound n (an atom) over the loop that summary
        # sums up (_nest), args being its outer variables: its charge
        # beyond the static one, n * (the inner iteration's charge + 4),
        # and for each slot that its iterations change the map of all n
        # of them, the identity for n = 0.  A rec met again (as the loop
        # itself meets its nested recs) reuses the locals of the first.
        if n not in naturals:
            naturals.add(n)
            lines.append(f"    if type({atom(n)}) is not int: return x1, x0, budget, False")
        _, _, chains, recs = summary
        charges, inner = [num(total)], []
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

    gap_params = "".join([f"g{j:d}, " for j in range(len(reads))])
    lines.append(f"def kernel(total, {gap_params}x0, x1, cenv, bound, budget):")
    if reads:
        lines.append("    e = cenv")
    for j, n in enumerate(reads):
        lines += [f"    for _ in range(g{j:d}): e = e[1]", f"    x{n:d} = e[0]"]
    cost = "total"  # an iteration's charge
    charges = [cost]
    maps: Dict[int, Dict[int, Tuple[Any, Any]]] = {}  # a nested rec's value -> its maps (nest)
    for kind, a, defined in body:
        if kind == _B_REC:
            charge, maps[defined[0]] = nest(a[0], a[2], a[3], a[4])
            charges.append(charge)
    if len(charges) > 1:
        # the machine's entry test covers only the static part of the charge
        cost = "c"
        lines += [f"    c = {' + '.join(charges)}", "    if budget < c: return x1, x0, budget, False"]
    summary = _nest(reads, ops)
    if summary is None:
        lines.append("    while True:")
    indent = "        " if summary is None else "    "
    stuck = "return x1, x0, budget, False"
    for kind, a, defined in body:
        if kind == _B_TUPLE:
            lines.append(f"{indent}x{defined[0]:d} = ({items(a)})")
        elif kind == _B_MATCH:
            lines.append(f"{indent}if type({atom(a)}) is not tuple or len({atom(a)}) != {len(defined):d}: {stuck}")
            if defined:
                lines.append(f"{indent}{items(defined)}= {atom(a)}")
        elif kind == _B_REC:
            # an item that the inner loop reads as it is must be a natural:
            # else single steps take the iteration, and get stuck where the
            # inner loop runs and the item is no natural
            base, changes = a[1], maps[defined[0]]
            for x in sorted({base[j] for j in a[4][1] if base[j] >= 0}):
                lines.append(f"{indent}if type({atom(x)}) is not int: {stuck}")
            for j, (x, r) in enumerate(zip(base, defined[1:])):
                lines.append(f"{indent}x{r:d} = {mapped(x, changes.get(j))}")
            lines.append(f"{indent}x{defined[0]:d} = ({items(defined[1:])})")
        else:
            if a >= 0:
                lines.append(f"{indent}if type({atom(a)}) is not int: {stuck}")
            count = f"{atom(a)} + 1" if kind == _B_SUCC else f"{atom(a)} - 1 if {atom(a)} > 0 else 0"
            lines.append(f"{indent}x{defined[0]:d} = {count}")
    lines.append(f"{indent}budget -= {cost}")
    if summary is None:
        lines += [
            f"        x0 = ({items(closing)})",
            f"        if x1 + 1 == bound or budget < {cost} + 4: return x1, x0, budget, True",
            "        budget -= 4",  # returns to _REC_NEXT, _REC_LOOP; the application
            "        x1 += 1",
        ]
    else:
        naturals.add(m)
        lines.append(f"    x{m:d} = min(bound - 1 - x1, budget // ({cost} + 4))")
        charge, powers = nest(m, reads, "total", summary)
        ends = "".join([mapped(x, powers.get(j)) + ", " for j, x in enumerate(closing)])
        lines += [f"    budget -= {charge}", f"    x1 += x{m:d}", f"    return x1, ({ends}), budget, True"]
    del nest  # a recursive closure is a reference cycle
    namespace: Dict[str, Any] = {}
    exec(compile("\n".join(lines + [""]), "<loop kernel>", "exec"), namespace)
    return namespace.pop("kernel")  # so that an evicted kernel is freed at once
