"""Kernel suites: alpha equivalence, substitution, eigenvariable
opening, and the environment algebra."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcert import envs, gen
from loopcert import syntax as S
from loopcert.errors import CheckError
from loopcert.parser import parse_formula, parse_prop, parse_qenv


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


def _rename_bound(value, counter):
    """Freshen every individual binder (used as the alpha oracle)."""
    if isinstance(value, S.IVar):
        return value
    if isinstance(value, tuple):
        return tuple(_rename_bound(v, counter) for v in value)
    if not isinstance(value, S.Node):
        return value
    kwargs = {f: getattr(value, f) for f in S.node_fields(value)}
    for binder_field, scoped in getattr(type(value), "_binds_ind", ()):
        binder = kwargs[binder_field]
        if binder is None:
            continue
        counter[0] += 1
        fresh = f"rb{counter[0]}"
        kwargs[binder_field] = fresh
        for f in scoped:
            kwargs[f] = S.subst_ind(kwargs[f], binder, S.IVar(fresh))
    kwargs = {f: _rename_bound(v, counter) for f, v in kwargs.items()}
    return type(value)(**kwargs)


def test_alpha_after_rename_bound():
    rng = random.Random(7)
    for _ in range(150):
        phi = gen.gen_formula(rng, 4)
        assert S.alpha_eq(phi, _rename_bound(phi, [0]))
    for _ in range(60):
        q = gen.gen_qenv(rng, 3)
        assert S.alpha_eq(q, _rename_bound(q, [0]))


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_subst_direct():
    fam = S.Fam("n", parse_formula("nat(n)"))
    assert S.alpha_eq(S.subst_ind(fam.body, "n", S.IZero()), parse_formula("nat(0)"))


def test_subst_shadowed_binder():
    body = parse_formula("exists n. nat(n)")
    out = S.subst_ind(body, "n", S.num_ind(1))
    assert S.alpha_eq(out, body)


def test_subst_capture_avoidance():
    # {n/nat(add(n, m))} applied to the variable m
    body = parse_formula("nat(add(n, m))")
    out = S.subst_ind(body, "n", S.IVar("m"))
    assert S.alpha_eq(out, parse_formula("nat(add(m, m))"))
    # a binder named m must be renamed before substituting m inside it
    body2 = parse_formula("exists m. nat(add(n, m))")
    out2 = S.subst_ind(body2, "n", S.IVar("m"))
    assert S.alpha_eq(out2, parse_formula("exists k. nat(add(m, k))"))


def _freshen_all(value, counter):
    """Rename every binder to a globally fresh name (naive-subst oracle)."""
    if isinstance(value, S.IVar):
        return value
    if isinstance(value, tuple):
        return tuple(_freshen_all(v, counter) for v in value)
    if not isinstance(value, S.Node):
        return value
    kwargs = {f: getattr(value, f) for f in S.node_fields(value)}
    for binder_field, scoped in getattr(type(value), "_binds_ind", ()):
        binder = kwargs[binder_field]
        if binder is None:
            continue
        counter[0] += 1
        fresh = f"uq{counter[0]}"
        kwargs[binder_field] = fresh
        for f in scoped:
            kwargs[f] = _textual_subst(kwargs[f], binder, S.IVar(fresh))
    kwargs = {f: _freshen_all(v, counter) for f, v in kwargs.items()}
    return type(value)(**kwargs)


def _textual_subst(value, name, repl):
    """Substitution with no capture handling; sound only on freshened terms."""
    if isinstance(value, S.IVar):
        return repl if value.name == name else value
    if isinstance(value, tuple):
        return tuple(_textual_subst(v, name, repl) for v in value)
    if not isinstance(value, S.Node):
        return value
    kwargs = {}
    for f in S.node_fields(value):
        child = getattr(value, f)
        shadowed = any(
            getattr(value, bf) == name and f in scoped
            for bf, scoped in getattr(type(value), "_binds_ind", ())
        )
        kwargs[f] = child if shadowed else _textual_subst(child, name, repl)
    return type(value)(**kwargs)


def test_subst_against_naive_oracle():
    rng = random.Random(42)
    names = ("n", "m", "k")
    for _ in range(100):
        var = rng.choice(names)
        body = gen.gen_formula(rng, 4, vars_=names)
        repl = gen.gen_ind(rng, 2, vars_=names)
        fast = S.subst_ind(body, var, repl)
        slow = _textual_subst(_freshen_all(body, [0]), var, repl)
        assert S.alpha_eq(fast, slow)


def test_open_substitute_round_trip():
    rng = random.Random(9)
    for _ in range(60):
        var = "n"
        body = gen.gen_formula(rng, 3, vars_=("n", "m"))
        eigen = S.Freshener().fresh(var)
        assert S.EIGEN_MARK in eigen
        opened = S.subst_ind(body, var, S.IVar(eigen))
        closed = S.subst_ind(opened, eigen, S.IVar(var))
        assert S.alpha_eq(closed, body)


def test_subst_returns_input_when_variable_not_free():
    rng = random.Random(11)
    for _ in range(150):
        phi = gen.gen_formula(rng, 4, vars_=("n", "m"))
        assert S.subst_ind(phi, "x", S.IVar("n")) is phi
        q = gen.gen_qenv(rng, 3, vars_=("n", "m"))
        assert S.subst_ind(q, "x", S.ISucc(S.IVar("m"))) is q
        t = gen.gen_term(rng, 4, ivars=("n",))
        assert S.subst_ind(t, "x", S.IZero()) is t
    # bound, not free: shadowed, and under a binder the replacement would capture
    shadowed = parse_formula("exists x. nat(add(x, n))")
    assert S.subst_ind(shadowed, "x", S.IZero()) is shadowed
    capture = parse_formula("forall m. nat(m)")
    assert S.subst_ind(capture, "n", S.IVar("m")) is capture


def test_subst_shares_unchanged_subtrees():
    phi = parse_formula("<nat(m), nat(n), forall k. nat(m)> -> nat(n)")
    out = S.subst_ind(phi, "n", S.IZero())
    assert out.dom.items[0] is phi.dom.items[0]
    assert out.dom.items[2] is phi.dom.items[2]
    assert out.dom.items[1] == S.FNat(S.IZero()) and out.cod == S.FNat(S.IZero())


def test_subst_keeps_spans():
    t = S.TIndApp(S.TVar("f", span=(3, 4)), S.IVar("n"), span=(3, 1))
    out = S.subst_ind(t, "n", S.IZero())
    assert out.span == (3, 1) and out.fn is t.fn and out.arg == S.IZero()


# ---------------------------------------------------------------------------
# alpha_eq against the reflective walk
# ---------------------------------------------------------------------------

def _reflective_alpha(a, b, la, lb, depth):
    """alpha equivalence by reflection over the dataclass fields at every
    node, as the kernel computed it before it cached per-class plans and
    tried structural equality first."""
    if isinstance(a, S.IVar) or isinstance(b, S.IVar) or isinstance(a, S.TVar) or isinstance(b, S.TVar):
        if type(a) is not type(b):
            return False
        kind = 0 if isinstance(a, S.IVar) else 1
        ia, ib = la[kind].get(a.name), lb[kind].get(b.name)
        return a.name == b.name if ia is None and ib is None else ia == ib
    if isinstance(a, S.Node) or isinstance(b, S.Node):
        if type(a) is not type(b):
            return False
        la2, lb2 = (dict(la[0]), dict(la[1])), (dict(lb[0]), dict(lb[1]))
        scoped_fields, binder_fields = set(), set()
        for kind, attr in ((0, "_binds_ind"), (1, "_binds_term")):
            for binder_field, scoped in getattr(type(a), attr, ()):
                binder_fields.add(binder_field)
                ba, bb = getattr(a, binder_field), getattr(b, binder_field)
                if (ba is None) != (bb is None):
                    return False
                if ba is None:
                    continue
                na = ba if isinstance(ba, tuple) else (ba,)
                nb = bb if isinstance(bb, tuple) else (bb,)
                if len(na) != len(nb):
                    return False
                for xa, xb in zip(na, nb):
                    la2[kind][xa], lb2[kind][xb] = depth, depth
                    depth += 1
                scoped_fields.update(scoped)
        for fname in S.node_fields(a):
            if fname in binder_fields:
                continue
            inner = fname in scoped_fields
            if not _reflective_alpha(
                getattr(a, fname), getattr(b, fname), la2 if inner else la, lb2 if inner else lb, depth
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
    "formula": lambda rng, d: gen.gen_formula(rng, d, vars_=_NAMES),
    "qenv": lambda rng, d: gen.gen_qenv(rng, d, vars_=_NAMES),
    "term": lambda rng, d: gen.gen_term(rng, d, vars_=("x",), ivars=_NAMES),
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
    elif mode == "renamed":  # alpha-equivalent, seldom structurally equal
        b = _rename_bound(a, [0])
    elif mode == "independent":
        b = make(random.Random(seed + 1), depth)
    else:  # shares a prefix of the random choices
        b = make(random.Random(seed), max(depth - 1, 0))
    want = _reflective_alpha(a, b, ({}, {}), ({}, {}), 0)
    assert S.alpha_eq(a, b) == want
    assert S.alpha_eq(b, a) == want
    assert S._alpha(a, b, ({}, {}), ({}, {}), 0) == want
    if mode in ("copy", "renamed"):
        assert want


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
    want = S.OExists("u", S.OSimple((S.FNat(S.IVar("u")), parse_prop("~(nat(F32(u)))"))))
    assert S.alpha_eq(out, want)


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
        q = gen.gen_qenv(rng, 3)
        names, out = envs.qsplit(q)
        assert S.alpha_eq(envs.qzip(names, out), q)
