"""Kernel suites: alpha equivalence, substitution, eigenvariable
opening, and the environment algebra.

Bound individuals are indices (see syntax.py).  The oracles below walk
nodes by reflection over their dataclass fields, with a binder's scope
taken from `_binds_ind`."""

import dataclasses
import glob
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcert import envs, fuzz, gen, pipeline
from loopcert import syntax as S
from loopcert.errors import CheckError
from loopcert.parser import parse_expr, parse_formula, parse_prop, parse_qenv, parse_seq, parse_term
from loopcert.printer import show

import syntax_gen


# ---------------------------------------------------------------------------
# alpha equivalence
# ---------------------------------------------------------------------------

def test_alpha_refl_nat_zero():
    assert S.alpha_eq(parse_formula("nat(0)"), parse_formula("nat(0)"))


def test_alpha_binder_renaming():
    assert S.alpha_eq(parse_formula("forall n. nat(n)"), parse_formula("forall m. nat(m)"))


def test_alpha_no_arithmetic():
    # rewriting requires an explicit coercion; add(0, m) is not m
    assert not S.alpha_eq(parse_formula("nat(add(0, m))"), parse_formula("nat(m)"))


def test_alpha_inconsistent_renaming():
    a = parse_formula("forall n. forall m. nat(add(n, m))")
    b = parse_formula("forall m. forall n. nat(add(m, n))")
    c = parse_formula("forall m. forall n. nat(add(n, m))")
    assert S.alpha_eq(a, b)
    assert not S.alpha_eq(a, c)


def _hints(value):
    """The names of value's fields that hold a binder's hint."""
    return [f.name for f in dataclasses.fields(value) if not f.compare and f.name != "span"]


def _rename_bound(value, counter):
    """Give every individual binder a fresh hint (used as the alpha oracle)."""
    if isinstance(value, tuple):
        return tuple(_rename_bound(v, counter) for v in value)
    if not isinstance(value, S.Node):
        return value
    kwargs = {f: _rename_bound(getattr(value, f), counter) for f in S.node_fields(value)}
    for hint in _hints(value):
        if kwargs[hint] is not None:
            counter[0] += 1
            kwargs[hint] = f"rb{counter[0]}"
    return type(value)(**kwargs)


def test_alpha_after_rename_bound():
    rng = random.Random(7)
    for _ in range(150):
        phi = syntax_gen.gen_formula(rng, 4)
        renamed = _rename_bound(phi, [0])
        assert phi == renamed and hash(phi) == hash(renamed) and S.alpha_eq(phi, renamed)
    for _ in range(60):
        q = syntax_gen.gen_qenv(rng, 3)
        renamed = _rename_bound(q, [0])
        assert q == renamed and hash(q) == hash(renamed)


def test_equality_and_hash_ignore_hints():
    a, b = parse_formula("forall n. exists m. nat(add(n, m))"), parse_formula("forall k. exists n. nat(add(k, n))")
    assert a == b and hash(a) == hash(b)
    assert a != parse_formula("forall k. exists n. nat(add(n, k))")
    # a for compares whether it has an index, not the index's hint
    frame = (("z", S.FNat(S.IZero())),)
    loops = [S.CFor("i", idx, S.EVar("x"), S.Seq(()), frame) for idx in (None, "k", "j")]
    assert loops[1] == loops[2] and hash(loops[1]) == hash(loops[2])
    assert loops[0] != loops[1]


def test_print_parse_round_trip_is_identity():
    rng = random.Random(2027)
    for _ in range(150):
        phi = syntax_gen.gen_formula(rng, 4, vars_=("n", "x"))
        assert parse_formula(show(phi)) == phi
        p = syntax_gen.gen_prop(rng, 3, vars_=("n", "x"))
        assert parse_prop(show(p)) == p
        q = syntax_gen.gen_qenv(rng, 3, vars_=("n", "x"))
        assert parse_qenv(show(q)) == q
        t = syntax_gen.gen_term(rng, 4, vars_=("y",), ivars=("n", "x"))
        assert parse_term(show(t)) == t
    # instantiated with names that clash with binders of the body: the
    # printer renames the binders that would capture them
    renamed = 0
    for _ in range(150):
        body = syntax_gen.gen_formula(rng, 4, vars_=("x", "y", "n"), bound=1)
        for name in syntax_gen.IDENTS:
            phi = S.subst_ind(body, S.IAdd(S.IVar(name), S.IVar("y")))
            text = show(phi)
            assert parse_formula(text) == phi
            renamed += "_2" in text
    assert renamed > 0


def test_printer_renames_binders_that_would_capture():
    phi = S.subst_ind(parse_formula("forall n. forall m. nat(add(n, m))").body, S.IVar("m"))
    assert show(phi) == "forall m_2. nat(add(m, m_2))"
    # a binder named like one around it that its body refers to
    assert show(parse_formula("forall n. forall k. forall n_2. nat(n)")) == "forall n. forall k. forall n_2. nat(n)"
    shadowed = S.FForall("n", S.FForall("n", S.FNat(S.IAdd(S.IBound(1), S.IBound(0)))))
    assert show(shadowed) == "forall n. forall n_2. nat(add(n, n_2))"
    assert show(parse_formula("forall n. forall n. nat(n)")) == "forall n. forall n. nat(n)"


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_subst_direct():
    phi = parse_formula("forall n. nat(n)")
    assert S.subst_ind(phi.body, S.IZero()) == parse_formula("nat(0)")


def test_subst_shadowed_binder():
    phi = parse_formula("forall n. exists n. nat(n)")
    assert S.subst_ind(phi.body, S.num_ind(1)) is phi.body


def test_subst_capture_avoidance():
    # {n/nat(add(n, m))} applied to the variable m
    phi = parse_formula("forall n. nat(add(n, m))")
    assert S.subst_ind(phi.body, S.IVar("m")) == parse_formula("nat(add(m, m))")
    # under a binder named m, m stays free
    phi2 = parse_formula("forall n. exists m. nat(add(n, m))")
    out2 = S.subst_ind(phi2.body, S.IVar("m"))
    assert out2 == parse_formula("exists k. nat(add(m, k))")
    assert show(out2) == "exists m_2. nat(add(m, m_2))"


def _naive_open(value, depth, repl):
    """Instantiation of the binder around value by reflection: the index of
    that binder, depth binders down, becomes repl with its own indices
    raised by depth, and an index that escapes past it is lowered by one."""
    if isinstance(value, S.IBound):
        if value.index < depth:
            return value
        if value.index > depth:
            return S.IBound(value.index - 1)
        return _raised(repl, depth)
    if isinstance(value, tuple):
        return tuple(_naive_open(v, depth, repl) for v in value)
    if not isinstance(value, S.Node):
        return value
    scoped = getattr(type(value), "_binds_ind", ())
    kwargs = {
        f: _naive_open(getattr(value, f), depth + (f in scoped), repl) for f in S.node_fields(value)
    }
    return type(value)(**kwargs)


def _raised(i, by):
    """Individual i with its indices raised by by."""
    if isinstance(i, S.IBound):
        return S.IBound(i.index + by)
    if not isinstance(i, S.Node):
        return i
    return type(i)(**{f: _raised(getattr(i, f), by) for f in S.node_fields(i)})


def test_subst_against_naive_oracle():
    rng = random.Random(42)
    names = ("n", "m", "k")
    for _ in range(200):
        var = rng.choice(names)
        # the body of a binder of var, over free n, m and k
        body = syntax_gen.gen_formula(rng, 4, vars_=names + (var,), bound=1)
        repl = syntax_gen.gen_ind(rng, 2, vars_=names)
        assert S.subst_ind(body, repl) == _naive_open(body, 0, repl)
        # a replacement whose own indices escape: the binders around the
        # binder of var, named n and m
        open_repl = syntax_gen.gen_ind(rng, 2, vars_=("n", "m"), bound=2)
        assert S.subst_ind(body, open_repl) == _naive_open(body, 0, open_repl)


def test_an_unpack_item_scopes_over_the_rest_of_its_sequence():
    """A sequence is flat, and its `?n.` item binds n over the items after
    it: closing a name that occurs on both sides of one gives the sequence
    the parser reads under a binder of that name."""
    seq = "z := x :> {k/nat(add(k, a))}[0 = 0]; ?n. { }[z : nat(add(n, a))]; [a in exists v. [z : nat(v)]]"
    under = parse_expr("proc forall a. [] out [] { " + seq + " }").header.body.body
    closed = S.close_ind(parse_seq(seq), "a")
    assert closed == under
    assert closed.items[2].ann == S.QSimple((("z", S.FNat(S.IAdd(S.IBound(0), S.IBound(1)))),))
    assert S.subst_ind(closed, S.IVar("a")) == parse_seq(seq)


def test_open_substitute_round_trip():
    rng = random.Random(9)
    for _ in range(60):
        body = syntax_gen.gen_formula(rng, 3, vars_=("m", "n"), bound=1)  # a binder of n around it
        eigen = S.Freshener().fresh("n")
        assert S.EIGEN_MARK in eigen
        opened = S.subst_ind(body, S.IVar(eigen))
        assert S.close_ind(opened, eigen) == body


def test_subst_returns_input_when_variable_not_free():
    rng = random.Random(11)
    for _ in range(150):
        phi = syntax_gen.gen_formula(rng, 4, vars_=("n", "m"))
        assert S.subst_ind(phi, S.IVar("n")) is phi
        q = syntax_gen.gen_qenv(rng, 3, vars_=("n", "m"))
        assert S.subst_ind(q, S.ISucc(S.IVar("m"))) is q
        t = syntax_gen.gen_term(rng, 4, ivars=("n",))
        assert S.subst_ind(t, S.IZero()) is t
    # bound, not free: shadowed, and under a binder the replacement would capture
    shadowed = parse_formula("exists x. nat(add(x, n))")
    assert S.subst_ind(shadowed, S.IZero()) is shadowed
    capture = parse_formula("forall m. nat(m)")
    assert S.subst_ind(capture, S.IVar("m")) is capture


def test_subst_shares_unchanged_subtrees():
    phi = parse_formula("forall n. <nat(m), nat(n), forall k. nat(m)> -> nat(n)").body
    out = S.subst_ind(phi, S.IZero())
    assert out.dom.items[0] is phi.dom.items[0]
    assert out.dom.items[2] is phi.dom.items[2]
    assert out.dom.items[1] == S.FNat(S.IZero()) and out.cod == S.FNat(S.IZero())


def test_subst_puts_a_locally_closed_replacement_under_a_binder_as_it_is():
    r = S.ISucc(S.IVar("a"))
    out = S.subst_ind(S.FForall("n", S.FNat(S.IBound(1))), r)
    assert out.body.index is r


def test_subst_keeps_spans():
    t = S.TIndApp(S.TVar("f", span=(3, 4)), S.IBound(0), span=(3, 1))
    out = S.subst_ind(t, S.IZero())
    assert out.span == (3, 1) and out.fn is t.fn and out.arg == S.IZero()


# ---------------------------------------------------------------------------
# alpha_eq against the reflective walk
# ---------------------------------------------------------------------------

_TERM_BINDERS = {S.TFn: "param", S.TLet: "name", S.TLetMatch: "names"}


def _reflective_alpha(a, b, la, lb, depth):
    """alpha equivalence by reflection over the dataclass fields at every
    node.  A binder's hint and a span do not compare, and a term variable
    compares by the depth of its binder."""
    if isinstance(a, S.TVar) or isinstance(b, S.TVar):
        if type(a) is not type(b):
            return False
        ia, ib = la.get(a.name), lb.get(b.name)
        return a.name == b.name if ia is None and ib is None else ia == ib
    if isinstance(a, S.Node) or isinstance(b, S.Node):
        if type(a) is not type(b):
            return False
        if isinstance(a, S.CFor) and (a.idx is None) != (b.idx is None):
            return False
        la2, lb2 = dict(la), dict(lb)
        binder = _TERM_BINDERS.get(type(a))
        if binder is not None:
            ba, bb = getattr(a, binder), getattr(b, binder)
            na = ba if isinstance(ba, tuple) else (ba,)
            nb = bb if isinstance(bb, tuple) else (bb,)
            if len(na) != len(nb):
                return False
            for xa, xb in zip(na, nb):
                la2[xa], lb2[xb] = depth, depth
                depth += 1
        for f in dataclasses.fields(a):
            if not f.compare or f.name == binder:
                continue
            inner = binder is not None and f.name == "body"
            if not _reflective_alpha(
                getattr(a, f.name), getattr(b, f.name), la2 if inner else la, lb2 if inner else lb, depth
            ):
                return False
        return True
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(
            _reflective_alpha(x, y, la, lb, depth) for x, y in zip(a, b)
        )
    return a == b


_NAMES = ("n", "m")
_MAKERS = {
    "formula": lambda rng, d: syntax_gen.gen_formula(rng, d, vars_=_NAMES),
    "qenv": lambda rng, d: syntax_gen.gen_qenv(rng, d, vars_=_NAMES),
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_MAKERS)),
    st.sampled_from(["copy", "renamed", "independent", "shallower"]),
    st.integers(0, 2**32),
    st.integers(0, 3),
)
def test_alpha_eq_agrees_with_reflective_walk(kind, mode, seed, depth):
    make = _MAKERS[kind]
    a = make(random.Random(seed), depth)
    if mode == "copy":  # equal, but built apart
        b = make(random.Random(seed), depth)
    elif mode == "renamed":  # alpha-equivalent, seldom equal hint for hint
        b = _rename_bound(a, [0])
    elif mode == "independent":
        b = make(random.Random(seed + 1), depth)
    else:  # shares a prefix of the random choices
        b = make(random.Random(seed), max(depth - 1, 0))
    want = _reflective_alpha(a, b, {}, {}, 0)
    assert S.alpha_eq(a, b) == want
    assert S.alpha_eq(b, a) == want
    if mode in ("copy", "renamed"):
        assert want


def test_alpha_eq_renames_term_binders():
    """The reference walk renames term binders; the kernel compares terms
    by ==, binder names included."""
    a = parse_term("fn x : nat => let <y, z> = x in lam n. <y, z>")
    b = parse_term("fn u : nat => let <v, w> = u in lam m. <v, w>")
    c = parse_term("fn u : nat => let <v, w> = u in lam m. <w, v>")
    assert _reflective_alpha(a, b, {}, {}, 0) and not _reflective_alpha(a, c, {}, {}, 0)
    assert a != b and not S.alpha_eq(a, b)


def test_alpha_eq_ignores_spans():
    assert S.alpha_eq(S.TVar("x", span=(1, 1)), S.TVar("x", span=(2, 7)))
    assert not S.alpha_eq(S.TVar("x", span=(1, 1)), S.TVar("y", span=(1, 1)))


# ---------------------------------------------------------------------------
# environment algebra
# ---------------------------------------------------------------------------

TOP = S.FTop()
NAT0 = S.FNat(S.IZero())


def test_lookup_rightmost_wins():
    env = (("x", TOP), ("x", NAT0))
    assert envs.lookup(env, "x") == NAT0


def test_notin_quantified():
    q = parse_qenv("exists n. [x : nat(n)]")
    assert envs.notin("y", q)
    assert not envs.notin("x", q)


def test_lookup_many():
    env = (("x", NAT0), ("y", TOP))
    assert envs.lookup_many(env, ("x", "y"), "LOOKUP") == (NAT0, TOP)


def test_update_rightmost():
    assert envs.update((("y", TOP),), "y", NAT0) == (("y", NAT0),)


def test_multi_update_empty():
    env = (("x", TOP), ("y", TOP))
    assert envs.multi_update(env, ()) == env


def test_update_no_insertion():
    with pytest.raises(CheckError) as err:
        envs.update((("x", NAT0),), "y", TOP)
    assert err.value.reason == "NotFound"


def test_split_and_init():
    env = (("x", NAT0), ("y", TOP))
    assert envs.split(env) == (("x", "y"), (NAT0, TOP))
    assert envs.init(("x", "y"), TOP) == (("x", TOP), ("y", TOP))


def test_qsplit_figure2_shape():
    q = parse_qenv("exists u. [r : nat(u), mk : ~(nat(F32(u)))]")
    names, out = envs.qsplit(q)
    assert names == ("r", "mk")
    want = parse_prop("~exists u. [nat(u), ~(nat(F32(u)))]").out
    assert out == want


_prop = st.sampled_from([TOP, NAT0, S.FBot(), S.FNat(S.ISucc(S.IZero()))])
_env = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]), _prop), min_size=0, max_size=5
).map(lambda pairs: tuple(dict(pairs).items()))


@settings(max_examples=120, deadline=None)
@given(_env, st.data())
def test_update_preserves_domain_and_order(env, data):
    if not env:
        return
    name = data.draw(st.sampled_from([x for x, _ in env]))
    ty = data.draw(_prop)
    updated = envs.update(env, name, ty)
    assert envs.split(updated)[0] == envs.split(env)[0]


@settings(max_examples=120, deadline=None)
@given(_env)
def test_restrict_zip_split_round_trips(env):
    names, types = envs.split(env)
    assert envs.zip_env(names, types) == env
    if len(set(names)) == len(names):
        assert envs.restrict(env, names) == env


@settings(max_examples=120, deadline=None)
@given(_env, _env)
def test_subset_of_append(small, big):
    merged = envs.append(big, small)
    envs.subset(small, merged)  # must never raise


def test_qzip_qsplit_round_trip():
    rng = random.Random(3)
    for _ in range(80):
        q = syntax_gen.gen_qenv(rng, 3)
        names, out = envs.qsplit(q)
        assert S.alpha_eq(envs.qzip(names, out), q)


# ---------------------------------------------------------------------------
# the kernel's contract: it acts on types and individuals, never on terms
# ---------------------------------------------------------------------------

_CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "corpus")
_KERNEL = ("alpha_eq", "open_inds", "free_ind_vars")


def _holds_term(value):
    if isinstance(value, S.Term):
        return True
    if isinstance(value, (tuple, list)):
        return any(_holds_term(item) for item in value)
    if isinstance(value, S.Node):
        return any(_holds_term(getattr(value, f)) for f in S.node_fields(value))
    return False


def test_the_kernel_sees_no_term_on_the_corpus_and_generated_programs(monkeypatch):
    """Every binding of the kernel's functions in the loopcert modules is
    wrapped, as the bench tracer wraps them; no argument of a call from
    the pipeline or the fuzzer is or holds a term."""
    calls = {name: 0 for name in _KERNEL}
    active = []  # an inner call sees part of what its outer call was given

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            if active:
                return fn(*args, **kwargs)
            calls[name] += 1
            assert not _holds_term((args, tuple(kwargs.values()))), (name, args)
            active.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()

        return wrapper

    modules = [m for key, m in sys.modules.items() if key.startswith("loopcert.")]
    for name in _KERNEL:
        original = getattr(S, name)
        wrapper = wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    paths = sorted(glob.glob(os.path.join(_CORPUS, "*.loop")))
    paths += sorted(glob.glob(os.path.join(_CORPUS, "negative", "*.loop")))
    assert len(paths) == 27
    for path in paths:
        pipeline.run_pipeline(path)
    for index in range(200):
        rng = random.Random(f"7:{index}")
        sf, entry, arity = gen.gen_is_program(rng, 30)
        assert fuzz.run_one(sf, entry, gen.gen_inputs(rng, arity)) is None
    assert all(calls.values()), calls
