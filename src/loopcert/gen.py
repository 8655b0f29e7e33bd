"""Seeded generators of well-typed-by-construction jump-free imperative
programs for the differential fuzzer.

Program generation follows the typing rules generatively: every command
is emitted against the current store typing, so the result checks by
construction.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from . import syntax as S

Rng = random.Random


# ---------------------------------------------------------------------------
# Well-typed jump-free IS programs
# ---------------------------------------------------------------------------

# a nat or top that the generator puts in a typing is one of these objects,
# so it tests for them by identity; procedure types compare by ==
NAT = S.FNat(None)
TOP = S.FTop()
UNARY_PROC = S.PProc(S.ProtoBase((NAT,), S.OSimple((NAT,))))


class _ProgGen:
    def __init__(self, rng: Rng, size_bound: int):
        self.rng = rng
        self.budget = size_bound
        self.counter = 0

    def name(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def spend(self) -> bool:
        if self.budget <= 0:
            return False
        self.budget -= 1
        return True

    # nat-typed expressions over the current scopes
    def nat_expr(self, gamma: Dict[str, S.Prop], omega: Dict[str, S.Prop]) -> S.Expr:
        rng = self.rng
        nat_vars = [x for x, t in omega.items() if t is NAT]
        nat_consts = [x for x, t in gamma.items() if t is NAT]
        pool = nat_vars + nat_consts
        if pool and rng.random() < 0.6:
            return S.EVar(rng.choice(pool))
        return S.ENum(rng.randrange(0, 6))

    def proc_literal(
        self, gamma: Dict[str, S.Prop], depth: int, arity: Optional[Tuple[int, int]] = None
    ) -> Tuple[S.Expr, S.Prop]:
        rng = self.rng
        n_in = rng.randrange(0, 3) if arity is None else arity[0]
        n_out = rng.randrange(1, 3) if arity is None else arity[1]
        params = []
        for _ in range(n_in):
            if arity is None and depth > 0 and rng.random() < 0.25:
                # a higher-order parameter: a procedure over naturals
                params.append((self.name("g"), UNARY_PROC))
            else:
                params.append((self.name("p"), NAT))
        outs = tuple((self.name("q"), NAT) for _ in range(n_out))
        inner_gamma = dict(gamma)
        inner_gamma.update(params)
        omega = {x: TOP for x, _ in outs}
        body = self.seq(inner_gamma, omega, dict(outs), depth - 1, max(0, min(self.budget, 6)))
        header = S.HBase(tuple(params), S.QSimple(outs), body)
        proto = S.ProtoBase(tuple(t for _, t in params), S.OSimple(tuple(t for _, t in outs)))
        return S.EProc(header), S.PProc(proto)

    def argument_for(self, want: S.Prop, gamma: Dict[str, S.Prop], omega: Dict[str, S.Prop]) -> S.Expr:
        if want is NAT:
            return self.nat_expr(gamma, omega)
        matching = [x for x, t in gamma.items() if t == want] + [
            x for x, t in omega.items() if t == want
        ]
        if matching and self.rng.random() < 0.7:
            return S.EVar(self.rng.choice(matching))
        # conjure a literal of exactly the unary shape
        assert want == UNARY_PROC
        literal, proto = self.proc_literal(gamma, 0, arity=(1, 1))
        assert proto == UNARY_PROC
        return literal

    def _fixup(self, omega: Dict[str, S.Prop], wanted: Dict[str, S.Prop]) -> List[S.CAssign]:
        fixes = []
        for name, t in reversed(list(wanted.items())):
            if omega.get(name) is not t:
                value = S.ENum(self.rng.randrange(0, 6)) if t is NAT else S.EStar()
                fixes.append(S.CAssign(name, value))
        fixes.reverse()
        return fixes

    def seq(
        self,
        gamma: Dict[str, S.Prop],
        omega: Dict[str, S.Prop],
        wanted: Dict[str, S.Prop],
        depth: int,
        steps: Optional[int] = None,
    ) -> S.Seq:
        """Generate items against the running store typing, one step at a
        time, then fix the store up to the wanted final typing."""
        rng = self.rng
        if steps is None:
            steps = self.budget
        items: List = []
        while steps > 0 and self.spend():
            steps -= 1
            choice = rng.random()
            if choice < 0.30 and omega:
                name = rng.choice(list(omega))
                if rng.random() < 0.15:
                    items.append(S.CAssign(name, S.EStar()))
                    omega = {**omega, name: TOP}
                else:
                    items.append(S.CAssign(name, self.nat_expr(gamma, omega)))
                    omega = {**omega, name: NAT}
            elif choice < 0.45:
                nat_vars = [x for x, t in omega.items() if t is NAT]
                if nat_vars:
                    name = rng.choice(nat_vars)
                    items.append(S.CInc(name) if rng.random() < 0.7 else S.CDec(name))
            elif choice < 0.55 and depth > 0:
                nat_vars = [x for x, t in omega.items() if t is NAT]
                if nat_vars:
                    frame_names = rng.sample(nat_vars, rng.randrange(1, min(3, len(nat_vars)) + 1))
                    frame = tuple((x, NAT) for x in frame_names)
                    if rng.random() < 0.5:
                        body = self.loop_body(gamma, frame_names, depth - 1)
                        items.append(S.CFor(self.name("i"), None, self.nat_expr(gamma, omega), body, frame))
                    else:
                        inner = {x: NAT for x in frame_names}
                        bbody = self.seq(gamma, dict(inner), dict(inner), depth - 1, rng.randrange(1, 4))
                        items.append(S.CBlock(bbody, S.QSimple(frame)))
            elif choice < 0.70 and depth > 0:
                if rng.random() < 0.5:
                    literal, proto = self.proc_literal(gamma, depth)
                    cname = self.name("f")
                    items.append(S.SCst(cname, literal))
                    gamma = {**gamma, cname: proto}
                else:
                    vname = self.name("t")
                    items.append(S.SVar(vname, self.nat_expr(gamma, omega)))
                    omega = {**omega, vname: NAT}
            elif choice < 0.85 and depth > 0:
                # calls only in depth-positive bodies: a conjured closure argument
                # may not call back into scope, which would build call cycles of
                # exponential runtime
                procs = [(x, t) for x, t in gamma.items() if isinstance(t, S.PProc)]
                if procs:
                    pname, pty = rng.choice(procs)
                    assert isinstance(pty.proto, S.ProtoBase)
                    assert isinstance(pty.proto.out, S.OSimple)
                    args = tuple(self.argument_for(t, gamma, omega) for t in pty.proto.params)
                    targets = list(omega)
                    if len(targets) >= len(pty.proto.out.types):
                        outs = tuple(rng.sample(targets, len(pty.proto.out.types)))
                        omega = dict(omega)
                        for o in outs:
                            omega[o] = NAT
                        items.append(S.CCall(S.EVar(pname), args, outs))
        return S.Seq(tuple(items + self._fixup(omega, wanted)))

    def loop_body(self, gamma: Dict[str, S.Prop], frame_names: List[str], depth: int) -> S.Seq:
        """A body that maps the all-nat frame typing to itself."""
        rng = self.rng
        cmds: List = []
        for _ in range(rng.randrange(1, 4)):
            if not self.spend():
                break
            roll = rng.random()
            name = rng.choice(frame_names)
            if roll < 0.5:
                cmds.append(S.CInc(name) if rng.random() < 0.7 else S.CDec(name))
            elif roll < 0.8:
                nat_pool = {x: NAT for x in frame_names}
                cmds.append(S.CAssign(name, self.nat_expr(gamma, nat_pool)))
            elif depth > 0:
                sub = rng.sample(frame_names, rng.randrange(1, len(frame_names) + 1))
                frame = tuple((x, NAT) for x in sub)
                cmds.append(
                    S.CFor(
                        self.name("i"),
                        None,
                        S.ENum(rng.randrange(0, 4)),
                        self.loop_body(gamma, sub, depth - 1),
                        frame,
                    )
                )
        return S.Seq(tuple(cmds))


def gen_is_program(rng: Rng, size_bound: int = 30) -> Tuple[S.SourceFile, str, int]:
    """A well-typed jump-free IS file with one entry procedure.

    Returns (file, entry name, input arity).
    """
    gen = _ProgGen(rng, size_bound)
    n_in = rng.randrange(1, 4)
    n_out = rng.randrange(1, 4)
    params = tuple((f"x{k}", NAT) for k in range(n_in))
    outs = tuple((f"z{k}", NAT) for k in range(n_out))
    gamma: Dict[str, S.Prop] = dict(params)
    omega: Dict[str, S.Prop] = {x: TOP for x, _ in outs}
    body = gen.seq(gamma, omega, dict(outs), depth=2)
    header = S.HBase(params, S.QSimple(outs), body)
    sf = S.SourceFile("IS", (("entry", S.EProc(header)),), None)
    return sf, "entry", n_in


def gen_inputs(rng: Rng, arity: int, count: int = 5, bound: int = 6) -> List[Tuple[int, ...]]:
    return [tuple([rng.randrange(0, bound + 1) for _ in range(arity)]) for _ in range(count)]
