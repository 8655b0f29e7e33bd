"""Binders over individuals that shadow binders of the same name, and
messages that print syntax under a binder.

Each case is an ID source, which the pipeline checks, translates to FD
and re-checks, or an FD source.  The expected reports were computed by
checkers that substituted every eigenvariable through its binder's
body.  Checkers that rename where they read syntax must give the same
exit codes, types, rule traces and messages, down to the names and the
numbering of the eigenvariables.
"""

import pytest

from loopcert import pipeline

ID = "discipline ID;\n\n"
FD = "discipline FD;\n\n"
CASES = {
    # forall m. under forall m.: g's m is its own, the call's m is f's
    "forall_under_forall": ID + """cst f = proc forall m. [x : nat(m)] out [z : nat(m)] {
  cst g = proc forall m. [y : nat(m)] out [w : nat(m)] {
    w := y;
  };
  g{m}(x; z);
};

main {
  f{2}(2; z);
} out [z : nat(succ(succ(0)))]
""",
    # ?m. under forall m.: the witness after the unpack is the new m
    "unpack_under_forall": ID + """cst f = proc forall m. [x : nat(m)] out exists v. [z : nat(v)] {
  z := x;
  { [m in exists u. [z : nat(u)]] } exists u. [z : nat(u)];
  ?m.
  [m in exists v. [z : nat(v)]]
};

main {
  f{1}(1; z);
  ?r.
  [r in exists v. [z : nat(v)]]
} out exists v. [z : nat(v)]
""",
    # the scope of a ?m. ends with its block: after it, m is f's again
    "unpack_scope_ends_with_block": ID + """cst f = proc forall m. [x : nat(m)] out [z : nat(m)] {
  {
    z := x;
    { [m in exists u. [z : nat(u)]] } exists u. [z : nat(u)];
    ?m.
    z := x;
  }[z : nat(m)];
  z := z :> {i/nat(i)}[add(0, m) = m];
  z := z :> {i/nat(i)}[m = add(0, m)];
};

main {
  f{1}(1; z);
} out [z : nat(succ(0))]
""",
    # ... also when the block's sequence ends in a :> group
    "unpack_scope_ends_with_subst_group": ID + """cst f = proc forall m. [x : nat(m)] out [z : nat(m)] {
  {
    z := x;
    { [m in exists u. [z : nat(u)]] } exists u. [z : nat(u)];
    ?m.
    (
      z := 0;
    ) :> {i/[z : nat(i)]}[add(0, 0) = 0];
  }[z : nat(add(0, 0))];
  z := x;
  z := z :> {i/nat(i)}[add(0, m) = m];
  z := z :> {i/nat(i)}[m = add(0, m)];
};

main {
  f{1}(1; z);
} out [z : nat(succ(0))]
""",
    # a for index named like the enclosing forall: the bound sees the
    # outer n, the frame and the body the index, and the code after the
    # loop the outer n again
    "for_index_shadows_forall": ID + """cst f = proc forall n. forall m. [x : nat(n), y : nat(m)] out [z : nat(add(n, m))] {
  z := y :> {i/nat(i)}[add(0, m) = m];
  for n : nat(n) := 0 until x {
    inc(z);
    z := z :> {i/nat(i)}[add(succ(n), m) = succ(add(n, m))];
  }[z : nat(add(n, m))];
  z := z :> {i/nat(i)}[add(0, add(n, m)) = add(n, m)];
  z := z :> {i/nat(i)}[add(n, m) = add(0, add(n, m))];
};

main {
  f{2}{1}(2, 1; z);
} out [z : nat(add(succ(succ(0)), succ(0)))]
""",
    # {m/...} families under forall m.: the family's m is its own
    "family_under_forall": ID + """cst f = proc forall m. [y : nat(m)] out [z : nat(m)] {
  z := y :> {m/nat(m)}[add(0, m) = m];
  z := z :> {m/nat(m)}[m = add(0, m)];
  (
    z := z :> {m/nat(m)}[add(0, m) = m];
  ) :> {m/[z : nat(m)]}[m = add(0, m)];
};

main {
  f{1}(1; z);
} out [z : nat(succ(0))]
""",
    # the argument message prints the argument renamed
    "argument_under_forall": ID + """cst g = proc [a : nat(0)] out [r : nat(0)] {
  r := a;
};

cst f = proc forall m. [x : nat(m)] out [z : nat(0)] {
  g(x :> {i/nat(i)}[add(0, m) = m]; z);
};

main {
  f{0}(0; z);
} out [z : nat(0)]
""",
    # the T_CALL continuation message prints the callee renamed
    "continuation_call_under_forall": ID + """cst f = proc forall m. [x : nat(m)] out exists u. [z : nat(u)] {
  k : {
    k <: {m/[nat(m)]}{m}(x; z);
    [m in exists u. [z : nat(u)]]
  } exists u. [z : nat(u)];
  ?u.
  [u in exists u. [z : nat(u)]]
};

main {
  f{0}(0; z);
  ?r.
  [r in exists v. [z : nat(v)]]
} out exists v. [z : nat(v)]
""",
    # the frame's index is the loop's, not the enclosing n
    "for_frame_index_mismatch": ID + """cst f = proc forall n. [x : nat(n)] out [z : nat(n)] {
  z := x;
  for n : nat(n) := 0 until x {
  }[z : nat(n)];
};

main {
  f{1}(1; z);
} out [z : nat(succ(0))]
""",
    # FD: lam n. under lam n., and a rec step lam n. under lam n.
    "fd_rec_step_under_lam": FD + """cst f = lam n. lam n. fn x : nat(n) =>
  rec{v.nat(v)}(x, 0, lam n. fn y : nat(n) => fn a : nat(n) => succ(a));

main = f{1}{2}(2);
""",
    # FD: the step counter message prints the annotation renamed
    "fd_step_counter_under_lam": FD + """cst f = lam n. fn x : nat(n) =>
  rec{v.nat(v)}(x, 0, lam m. fn y : nat(n) => fn a : nat(m) => succ(a));
""",
    # FD: a step binder named like the enclosing lam; the message prints
    # the annotation renamed, but not by the step's own binder
    "fd_step_counter_shadowing": FD + """cst f = lam n. fn x : nat(n) =>
  rec{v.nat(v)}(x, 0, lam n. fn y : nat(succ(n)) => fn a : nat(n) => succ(a));
""",
    # FD: an unpacked eigenvariable escapes
    "fd_eigen_escape": FD + """cst f = lam n. fn p : exists n. <nat(n)> => let <x> = p in ?n. x;
""",
}


EXPECTED = {
    "forall_under_forall": {
        "exit_code": 0,
        "phases": "parse check-source translate check-target evaluate",
        "types": {
            "check-source": {"f": "proc forall m. ([nat(m)] out [nat(m)])"},
            "check-target": {
                "f": "forall m. <nat(m)> -> <nat(m)>",
                "main": "<nat(succ(succ(0)))>",
            },
        },
        "traces": {
            "check-source": (
                "T_PROC_ABS T_PROC_DECL T_PROC_ABS T_PROC_DECL T_ENV_I T_ASSIGN T_EMPTY T_CST "
                "T_ENV_I T_PROC_INST T_ENV_I T_EXPS_II T_CALL TC_UPDATE_SEQ_I T_EMPTY T_ENV_I "
                "T_PROC_INST T_SUCC T_EXPS_II T_CALL TC_UPDATE_SEQ_I T_EMPTY"
            ),
            "check-target": (
                "TC_VAR TC_MATCH TC_PRODUCT TC_VAR TC_MATCH TC_PRODUCT TC_VAR TC_LET TC_VAR "
                "TC_TUPLE TC_LAM TC_FORALL_I TC_LET TC_VAR TC_FORALL_E TC_VAR TC_TUPLE TC_APP "
                "TC_MATCH TC_PRODUCT TC_VAR TC_TUPLE TC_LAM TC_FORALL_I TC_VAR TC_FORALL_E TC_ZERO"
                " TC_SUCC TC_SUCC TC_TUPLE TC_APP TC_MATCH TC_PRODUCT TC_VAR TC_TUPLE"
            ),
        },
        "diagnostics": [],
    },
    "unpack_under_forall": {
        "exit_code": 0,
        "phases": "parse check-source translate check-target evaluate",
        "types": {
            "check-source": {"f": "proc forall m. ([nat(m)] out exists v. [nat(v)])"},
            "check-target": {
                "f": "forall m. <nat(m)> -> exists v. <nat(v)>",
                "main": "exists v. <nat(v)>",
            },
        },
        "traces": {
            "check-source": (
                "T_PROC_ABS T_PROC_DECL T_ENV_I T_ASSIGN T_BLOCK T_WITNESS T_EMPTY "
                "TC_UPDATE_SEQ_II TC_UPDATE_SEQ_I T_WITNESS T_EMPTY T_ENV_I T_PROC_INST T_SUCC "
                "T_EXPS_II T_CALL TC_UPDATE_SEQ_II TC_UPDATE_SEQ_I T_WITNESS T_EMPTY"
            ),
            "check-target": (
                "TC_VAR TC_MATCH TC_PRODUCT TC_VAR TC_LET TC_VAR TC_TUPLE TC_EXISTS_I TC_MATCH "
                "TC_EXISTS TC_PRODUCT TC_VAR TC_TUPLE TC_EXISTS_I TC_LAM TC_FORALL_I TC_VAR "
                "TC_FORALL_E TC_ZERO TC_SUCC TC_TUPLE TC_APP TC_MATCH TC_EXISTS TC_PRODUCT TC_VAR "
                "TC_TUPLE TC_EXISTS_I"
            ),
        },
        "diagnostics": [],
    },
    "unpack_scope_ends_with_block": {
        "exit_code": 0,
        "phases": "parse check-source translate check-target evaluate",
        "types": {
            "check-source": {"f": "proc forall m. ([nat(m)] out [nat(m)])"},
            "check-target": {"f": "forall m. <nat(m)> -> <nat(m)>", "main": "<nat(succ(0))>"},
        },
        "traces": {
            "check-source": (
                "T_PROC_ABS T_PROC_DECL T_BLOCK T_ENV_I T_ASSIGN T_BLOCK T_WITNESS T_EMPTY "
                "TC_UPDATE_SEQ_II TC_UPDATE_SEQ_I T_ENV_I T_ASSIGN T_EMPTY TC_UPDATE_SEQ_I T_AX_I "
                "T_ENV_II T_EQUAL_E T_ASSIGN T_AX_II T_ENV_II T_EQUAL_E T_ASSIGN T_EMPTY T_ENV_I "
                "T_PROC_INST T_SUCC T_EXPS_II T_CALL TC_UPDATE_SEQ_I T_EMPTY"
            ),
            "check-target": (
                "TC_VAR TC_MATCH TC_PRODUCT TC_VAR TC_LET TC_VAR TC_TUPLE TC_EXISTS_I TC_MATCH "
                "TC_EXISTS TC_PRODUCT TC_VAR TC_LET TC_VAR TC_TUPLE TC_MATCH TC_PRODUCT TC_AX_I "
                "TC_VAR TC_EQUAL_E TC_LET TC_AX_II TC_VAR TC_EQUAL_E TC_LET TC_VAR TC_TUPLE TC_LAM"
                " TC_FORALL_I TC_VAR TC_FORALL_E TC_ZERO TC_SUCC TC_TUPLE TC_APP TC_MATCH "
                "TC_PRODUCT TC_VAR TC_TUPLE"
            ),
        },
        "diagnostics": [],
    },
    "unpack_scope_ends_with_subst_group": {
        "exit_code": 0,
        "phases": "parse check-source translate check-target evaluate",
        "types": {
            "check-source": {"f": "proc forall m. ([nat(m)] out [nat(m)])"},
            "check-target": {"f": "forall m. <nat(m)> -> <nat(m)>", "main": "<nat(succ(0))>"},
        },
        "traces": {
            "check-source": (
                "T_PROC_ABS T_PROC_DECL T_BLOCK T_ENV_I T_ASSIGN T_BLOCK T_WITNESS T_EMPTY "
                "TC_UPDATE_SEQ_II TC_UPDATE_SEQ_I T_AX_I T_SUBST T_ZERO T_ASSIGN T_EMPTY "
                "TC_UPDATE_SEQ_I T_ENV_I T_ASSIGN T_AX_I T_ENV_II T_EQUAL_E T_ASSIGN T_AX_II "
                "T_ENV_II T_EQUAL_E T_ASSIGN T_EMPTY T_ENV_I T_PROC_INST T_SUCC T_EXPS_II T_CALL "
                "TC_UPDATE_SEQ_I T_EMPTY"
            ),
            "check-target": (
                "TC_VAR TC_MATCH TC_PRODUCT TC_VAR TC_LET TC_VAR TC_TUPLE TC_EXISTS_I TC_MATCH "
                "TC_EXISTS TC_PRODUCT TC_AX_I TC_ZERO TC_LET TC_VAR TC_TUPLE TC_EQUAL_E TC_MATCH "
                "TC_PRODUCT TC_VAR TC_LET TC_AX_I TC_VAR TC_EQUAL_E TC_LET TC_AX_II TC_VAR "
                "TC_EQUAL_E TC_LET TC_VAR TC_TUPLE TC_LAM TC_FORALL_I TC_VAR TC_FORALL_E TC_ZERO "
                "TC_SUCC TC_TUPLE TC_APP TC_MATCH TC_PRODUCT TC_VAR TC_TUPLE"
            ),
        },
        "diagnostics": [],
    },
    "for_index_shadows_forall": {
        "exit_code": 0,
        "phases": "parse check-source translate check-target evaluate",
        "types": {
            "check-source": {
                "f": "proc forall n. forall m. ([nat(n), nat(m)] out [nat(add(n, m))])",
            },
            "check-target": {
                "f": "forall n. forall m. <nat(n), nat(m)> -> <nat(add(n, m))>",
                "main": "<nat(add(succ(succ(0)), succ(0)))>",
            },
        },
        "traces": {
            "check-source": (
                "T_PROC_ABS T_PROC_ABS T_PROC_DECL T_AX_I T_ENV_I T_EQUAL_E T_ASSIGN T_ENV_I T_FOR"
                " T_INC T_AX_I T_ENV_II T_EQUAL_E T_ASSIGN T_EMPTY T_AX_I T_ENV_II T_EQUAL_E "
                "T_ASSIGN T_AX_II T_ENV_II T_EQUAL_E T_ASSIGN T_EMPTY T_ENV_I T_PROC_INST "
                "T_PROC_INST T_SUCC T_EXPS_II T_SUCC T_EXPS_II T_CALL TC_UPDATE_SEQ_I T_EMPTY"
            ),
            "check-target": (
                "TC_VAR TC_MATCH TC_PRODUCT TC_AX_I TC_VAR TC_EQUAL_E TC_LET TC_VAR TC_VAR "
                "TC_TUPLE TC_VAR TC_MATCH TC_PRODUCT TC_VAR TC_SUCC TC_LET TC_AX_I TC_VAR "
                "TC_EQUAL_E TC_LET TC_VAR TC_TUPLE TC_LAM TC_REC TC_MATCH TC_PRODUCT TC_AX_I "
                "TC_VAR TC_EQUAL_E TC_LET TC_AX_II TC_VAR TC_EQUAL_E TC_LET TC_VAR TC_TUPLE TC_LAM"
                " TC_FORALL_I TC_FORALL_I TC_VAR TC_FORALL_E TC_FORALL_E TC_ZERO TC_SUCC TC_SUCC "
                "TC_ZERO TC_SUCC TC_TUPLE TC_APP TC_MATCH TC_PRODUCT TC_VAR TC_TUPLE"
            ),
        },
        "diagnostics": [],
    },
    "family_under_forall": {
        "exit_code": 0,
        "phases": "parse check-source translate check-target evaluate",
        "types": {
            "check-source": {"f": "proc forall m. ([nat(m)] out [nat(m)])"},
            "check-target": {"f": "forall m. <nat(m)> -> <nat(m)>", "main": "<nat(succ(0))>"},
        },
        "traces": {
            "check-source": (
                "T_PROC_ABS T_PROC_DECL T_AX_I T_ENV_I T_EQUAL_E T_ASSIGN T_AX_II T_ENV_II "
                "T_EQUAL_E T_ASSIGN T_AX_II T_SUBST T_AX_I T_ENV_II T_EQUAL_E T_ASSIGN T_EMPTY "
                "T_ENV_I T_PROC_INST T_SUCC T_EXPS_II T_CALL TC_UPDATE_SEQ_I T_EMPTY"
            ),
            "check-target": (
                "TC_VAR TC_MATCH TC_PRODUCT TC_AX_I TC_VAR TC_EQUAL_E TC_LET TC_AX_II TC_VAR "
                "TC_EQUAL_E TC_LET TC_AX_II TC_AX_I TC_VAR TC_EQUAL_E TC_LET TC_VAR TC_TUPLE "
                "TC_EQUAL_E TC_LAM TC_FORALL_I TC_VAR TC_FORALL_E TC_ZERO TC_SUCC TC_TUPLE TC_APP "
                "TC_MATCH TC_PRODUCT TC_VAR TC_TUPLE"
            ),
        },
        "diagnostics": [],
    },
    "argument_under_forall": {
        "exit_code": 2,
        "phases": "parse check-source!",
        "types": {},
        "traces": {},
        "diagnostics": [
            ("T_CALL", (8, 3), (
                "argument x :> {i/nat(i)}[add(0, m!1) = m!1] has type "
                "nat(add(0, m!1)), expected nat(0)"
            )),
        ],
    },
    "continuation_call_under_forall": {
        "exit_code": 2,
        "phases": "parse check-source!",
        "types": {},
        "traces": {},
        "diagnostics": [
            ("T_CALL", (5, 5), (
                "'k <: {m/[nat(m)]}{m!1}' is a continuation of type "
                "~(nat(m!1)); use jump"
            )),
        ],
    },
    "for_frame_index_mismatch": {
        "exit_code": 2,
        "phases": "parse check-source!",
        "types": {},
        "traces": {},
        "diagnostics": [
            ("T_FOR", (5, 3), "ident 'z' has type nat(n!1), the annotation requires nat(0)"),
        ],
    },
    "fd_rec_step_under_lam": {
        "exit_code": 0,
        "phases": "parse check-source evaluate",
        "types": {
            "check-source": {
                "f": "forall n. forall n. nat(n) -> nat(n)",
                "main": "nat(succ(succ(0)))",
            },
        },
        "traces": {
            "check-source": (
                "TC_VAR TC_ZERO TC_VAR TC_SUCC TC_LAM TC_REC TC_LAM TC_FORALL_I TC_FORALL_I TC_VAR"
                " TC_FORALL_E TC_FORALL_E TC_ZERO TC_SUCC TC_SUCC TC_APP"
            ),
        },
        "diagnostics": [],
    },
    "fd_step_counter_under_lam": {
        "exit_code": 2,
        "phases": "parse check-source!",
        "types": {},
        "traces": {},
        "diagnostics": [
            ("TC_REC", (4, 3), "step counter annotated nat(n!1), expected nat(m)"),
        ],
    },
    "fd_step_counter_shadowing": {
        "exit_code": 2,
        "phases": "parse check-source!",
        "types": {},
        "traces": {},
        "diagnostics": [
            ("TC_REC", (4, 3), "step counter annotated nat(succ(n)), expected nat(n)"),
        ],
    },
    "fd_eigen_escape": {
        "exit_code": 2,
        "phases": "parse check-source!",
        "types": {},
        "traces": {},
        "diagnostics": [
            ("TC_EXISTS", (3, 45), "eigenvariable n!2 escapes into the result type nat(n!2)"),
        ],
    },
}


def summary(name):
    data = pipeline.run_pipeline(f"{name}.loop", text=CASES[name], want_trace=True).to_dict()
    phases = data["phases"]
    return {
        "exit_code": data["exit_code"],
        "phases": " ".join(p["name"] + ("" if p["ok"] else "!") for p in phases),
        "types": {p["name"]: p["payload"]["types"] for p in phases if "types" in p["payload"]},
        "traces": {p["name"]: " ".join(p["payload"]["trace"]) for p in phases if "trace" in p["payload"]},
        "diagnostics": [
            (d["rule"], tuple(d["span"]) if d["span"] else None, d["message"]) for d in data["diagnostics"]
        ],
    }


def test_every_case_is_pinned():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_pinned(name):
    assert summary(name) == EXPECTED[name]
