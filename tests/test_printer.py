"""The printer, pinned form by form: one hand-built node per printable
form, with the exact text it prints.  A bound individual is an index,
b0 for the nearest binder and b1 for the one around it; its binder's
name is the hint the printer shows."""

import pytest

from loopcert import syntax as S
from loopcert.printer import show, show_env, show_file, show_qenv, show_term

n, m = S.IVar("n"), S.IVar("m")
b0, b1 = S.IBound(0), S.IBound(1)
ZERO = S.IZero()
NAT, TOP = S.FNat(), S.FTop()
x, f, g = S.TVar("x"), S.TVar("f"), S.TVar("g")
ex = S.EVar("x")


def nat(i):
    return S.FNat(i)


def seq(*items):
    return S.Seq(items)


def env(*pairs):
    return S.QSimple(tuple(pairs))


AXIOM = S.TAxiom(S.IAdd(n, ZERO), n)
STEP = S.TFn("i", NAT, S.TFn("a", NAT, S.TSucc(S.TVar("a"))))
PROC = S.EProc(S.HForall("n", S.HBase(
    (("x", nat(b0)),), env(("z", nat(b0))),
    seq(S.CAssign("z", ex), S.CFor("i", None, ex, seq(S.CInc("z"), S.CDec("z")), (("z", NAT),))),
)))
PROC_TEXT = (
    "proc forall n. [x : nat(n)] out [z : nat(n)] {\n"
    "  z := x;\n"
    "  for i := 0 until x {\n"
    "    inc(z);\n"
    "    dec(z);\n"
    "  }[z : nat];\n"
    "}"
)

SHOWN = {
    # individuals
    "ivar": (n, "n"),
    "izero": (ZERO, "0"),
    "isucc": (S.ISucc(n), "succ(n)"),
    "ipred": (S.IPred(ZERO), "pred(0)"),
    "iadd": (S.IAdd(n, S.IAdd(m, ZERO)), "add(n, add(m, 0))"),
    "isub": (S.ISub(S.ISub(n, m), ZERO), "sub(sub(n, m), 0)"),
    "imult": (S.IMult(n, S.ISucc(m)), "mult(n, succ(m))"),
    "if32": (S.IF32(S.IAdd(n, ZERO)), "F32(add(n, 0))"),
    # formulas
    "neg_top_level": (S.neg_f(S.FArrow(NAT, NAT)), "~(nat -> nat)"),
    "neg_arrow_domain": (S.FArrow(S.neg_f(NAT), NAT), "~nat -> nat"),
    "neg_atom": (S.neg_f(S.neg_f(NAT)), "~(~nat)"),
    "neg_in_tuple": (S.FTuple((S.neg_f(NAT), TOP)), "<~nat, top>"),
    "arrows_left": (S.FArrow(S.FArrow(S.FArrow(NAT, TOP), NAT), NAT), "((nat -> top) -> nat) -> nat"),
    "arrows_right": (S.FArrow(NAT, S.FArrow(TOP, NAT)), "nat -> top -> nat"),
    "quantifiers": (S.FForall("n", S.FExists("m", S.FArrow(nat(b1), nat(b0)))),
                    "forall n. exists m. nat(n) -> nat(m)"),
    "forall_domain": (S.FArrow(S.FForall("n", nat(b0)), S.FBot()), "(forall n. nat(n)) -> bot"),
    "nat": (NAT, "nat"),
    "nat_index": (nat(S.ISucc(n)), "nat(succ(n))"),
    "equation": (S.FEq(n, S.IAdd(n, ZERO)), "(n = add(n, 0))"),
    "prop_name": (S.FProp("P"), "P"),
    "empty_tuple": (S.FTuple(()), "<>"),
    # props, outputs, prototypes
    "pproc": (S.PProc(S.ProtoBase((NAT, TOP), S.OSimple((NAT,)))), "proc ([nat, top] out [nat])"),
    "proto_all": (S.PProc(S.ProtoAll("n", S.ProtoBase((nat(b0),), S.OExists("v", S.OSimple((nat(b0),)))))),
                  "proc forall n. ([nat(n)] out exists v. [nat(v)])"),
    "pneg_simple": (S.PNeg(S.OSimple((NAT, S.PNeg(S.OSimple(()))))), "~(nat, ~())"),
    "pneg_exists": (S.PNeg(S.OExists("v", S.OSimple((nat(b0),)))), "~exists v. [nat(v)]"),
    "output_formula_atoms": (S.OSimple((S.FArrow(NAT, NAT), S.neg_f(NAT), S.FEq(n, m))),
                             "[(nat -> nat), (~nat), (n = m)]"),
    # quantified environments
    "qexists": (S.QExists("v", S.QExists("w", env(("z", nat(b1)), ("p", S.PNeg(S.OSimple((NAT,))))))),
                "exists v. exists w. [z : nat(v), p : ~(nat)]"),
    # terms
    "rec_motive": (S.TRec(x, S.TZero(), STEP, S.Fam("k", nat(b0))),
                   "rec{k.nat(k)}(x, 0, fn i : nat => fn a : nat => succ(a))"),
    "rec": (S.TRec(S.TPred(x), x, STEP), "rec(pred(x), x, fn i : nat => fn a : nat => succ(a))"),
    "pack": (S.TPack(n, x, S.FExists("v", nat(b0))), "pack(n, x : exists v. nat(v))"),
    "throw": (S.TThrow(S.neg_f(NAT), S.TVar("k"), S.TApp(f, x)), "throw[~nat] k (f x)"),
    "callcc": (S.TCallcc(S.TFn("k", S.neg_f(NAT), S.TZero())), "callcc (fn k : ~nat => 0)"),
    "coerce": (S.TCoerce(S.TApp(f, x), S.Fam("i", nat(b0)), AXIOM), "f x :> {i/nat(i)}[add(n, 0) = n]"),
    "coerce_applied": (S.TApp(S.TCoerce(f, S.Fam("i", nat(b0)), AXIOM), x),
                       "(f :> {i/nat(i)}[add(n, 0) = n]) x"),
    "ind_app": (S.TApp(S.TIndApp(S.TIndApp(f, n), m), S.TTuple((x, S.TZero()))), "f{n}{m} <x, 0>"),
    "apps": (S.TApp(S.TApp(f, x), S.TApp(g, S.TSucc(x))), "f x (g succ(x))"),
    "lam": (S.TIndLam("n", S.TFn("x", nat(b0), x)), "lam n. fn x : nat(n) => x"),
    "unpack": (S.TUnpack("n", S.TApp(f, S.TUnpack("m", x))), "?n. f (?m. x)"),
    "let": (S.TLet("a", S.TLet("b", S.TZero(), S.TVar("b")), S.TApp(f, S.TLet("c", x, x))),
            "let a = let b = 0 in b in f (let c = x in x)"),
    "let_match": (S.TLetMatch(("a", "b"), x, S.TTuple((S.TVar("b"), S.TVar("a")))), "let <a, b> = x in <b, a>"),
    "axiom": (S.TApp(f, AXIOM), "f (add(n, 0) = n)"),
    # expressions
    "estar_enum": (S.CCall(S.EVar("p"), (S.EStar(), S.ENum(12)), ("z", "w")), "p(*, 12; z, w);"),
    "einst": (S.EInst(S.EInst(S.EVar("p"), n), m), "p{n}{m}"),
    "cont_inst": (S.EContInst(S.EVar("k"), S.Fam("v", S.OSimple((nat(b0),))), n), "k <: {v/[nat(v)]}{n}"),
    "ecoerce": (S.ECoerce(ex, S.Fam("i", nat(b0)), S.EAxiom(S.IAdd(n, ZERO), n)),
                "x :> {i/nat(i)}[add(n, 0) = n]"),
    "eaxiom_post": (S.EInst(S.EAxiom(n, n), m), "(n = n){m}"),
    "proc_coerced": (S.ECoerce(PROC, S.Fam("i", NAT), S.EAxiom(n, n)), PROC_TEXT + " :> {i/nat}[n = n]"),
    # commands and sequence items
    "assign": (S.CAssign("z", S.EInst(ex, n)), "z := x{n};"),
    "for": (S.CFor("i", None, ex, seq(S.CInc("z")), (("z", NAT),)), "for i := 0 until x {\n  inc(z);\n}[z : nat];"),
    "for_index": (S.CFor("i", "k", ex, seq(S.CDec("z")), (("z", nat(b0)),)),
                  "for i : nat(k) := 0 until x {\n  dec(z);\n}[z : nat(k)];"),
    "label_jump": (S.CLabel("l", seq(S.CJump(S.EVar("l"), (ex, S.ENum(0)), env(("z", NAT))),
                                     S.CJump(S.EVar("l"), (), env())), env(("z", NAT))),
                   "l : {\n  jump(l, x, 0)[z : nat];\n  jump(l)[];\n}[z : nat];"),
    "block": (S.CBlock(seq(S.CAssign("z", ex)), S.QExists("v", env(("z", nat(b0))))),
              "{\n  z := x;\n}exists v. [z : nat(v)];"),
    "empty_body": (S.CBlock(seq(), env()), "{\n}[];"),
    "empty_seq": (seq(), ""),
    "subst_group": (seq(S.SSubst(seq(S.CInc("z")), S.Fam("i", env(("z", nat(b0)))), S.EAxiom(n, m))),
                    "(\n  inc(z);\n) :> {i/[z : nat(i)]}[n = m];"),
    "witness_unpack": (seq(S.SCst("c", S.ENum(1)), S.SWitness(n, S.QExists("v", env(("z", nat(b0))))),
                           S.SUnpack("w"), S.SVar("y", ex), S.CInc("y")),
                       "cst c = 1;\n[n in exists v. [z : nat(v)]]\n?w.\nvar y := x;\ninc(y);"),
    # a proc literal's body is indented one step past the line it starts on
    "proc_in_expr": (S.CBlock(seq(S.SCst("p", PROC), S.CCall(S.EInst(S.EVar("p"), ZERO), (S.ENum(0),), ("z",))),
                              env(("z", NAT))),
                     "{\n  cst p = " + PROC_TEXT.replace("\n", "\n  ") + ";\n  p{0}(0; z);\n}[z : nat];"),
    "proc_header": (PROC.header, PROC_TEXT),
    "tuple": ((n, NAT, x, ex), "n, nat, x, x"),
}


@pytest.mark.parametrize("key", sorted(SHOWN))
def test_show(key):
    node, want = SHOWN[key]
    assert show(node) == want


@pytest.mark.parametrize("key", [key for key, (node, _) in SHOWN.items() if isinstance(node, S.Term)])
def test_show_term_agrees_with_show(key):
    node, want = SHOWN[key]
    assert show_term(node) == want


def test_show_env_and_qenv():
    assert show_env(()) == "[]"
    assert show_env((("f", S.FArrow(NAT, NAT)), ("p", S.PProc(S.ProtoBase((), S.OSimple(())))))) == (
        "[f : nat -> nat, p : proc ([] out [])]"
    )
    assert show_qenv(S.QExists("v", env(("z", nat(b0))))) == "exists v. [z : nat(v)]"


FILES = {
    "imperative": (
        S.SourceFile("ID", (("p", PROC), ("q", S.EVar("p"))),
                     S.MainI(seq(S.CCall(S.EInst(S.EVar("p"), ZERO), (S.ENum(0),), ("z",))), env(("z", NAT)))),
        "discipline ID;\n\ncst p = " + PROC_TEXT + ";\n\ncst q = p;\n\nmain {\n  p{0}(0; z);\n} out [z : nat]\n",
    ),
    "functional": (
        S.SourceFile("FD", (("f", S.TIndLam("n", S.TFn("x", nat(b0), x))),),
                     S.MainF(S.TApp(S.TIndApp(f, ZERO), S.TZero()))),
        "discipline FD;\n\ncst f = lam n. fn x : nat(n) => x;\n\nmain = f{0} 0;\n",
    ),
    "no_main": (S.SourceFile("FS", (("f", x), ("g", S.TZero()))), "discipline FS;\n\ncst f = x;\n\ncst g = 0;\n"),
    "empty_main": (S.SourceFile("IS", (), S.MainI(seq(), env())), "discipline IS;\n\nmain {\n} out []\n"),
    "nothing": (S.SourceFile("IS", ()), "discipline IS;\n"),
}


@pytest.mark.parametrize("key", sorted(FILES))
def test_show_file(key):
    sf, want = FILES[key]
    assert show_file(sf) == want
