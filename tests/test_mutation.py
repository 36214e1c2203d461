import functools
import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcones
from arcones import cone, mutation
from arcones.system import System


def test_mutate_b_basic():
    assert mutation.mutate_b([[0, 1], [-1, 0]], 0) == [[0, -1], [1, 0]]


def test_mutate_b_path():
    # path 1 -> 2 -> 3, mutate at the middle
    b = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
    b2 = mutation.mutate_b(b, 1)
    assert b2[0][2] == 1
    assert b2[0][1] == -1 and b2[1][2] == -1


skew = st.integers(-3, 3)


@given(st.lists(st.lists(skew, min_size=3, max_size=3), min_size=3, max_size=3),
       st.integers(0, 2))
@settings(max_examples=60)
def test_mutate_b_involutive(raw, u):
    b = [[raw[i][j] if i < j else (-raw[j][i] if j < i else 0)
          for j in range(3)] for i in range(3)]
    assert mutation.mutate_b(mutation.mutate_b(b, u), u) == b


@given(st.lists(st.integers(-3, 3), min_size=3, max_size=3), st.integers(0, 2))
@settings(max_examples=40)
def test_mutate_g_examples(g, u):
    b = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
    g2 = mutation.mutate_g(g, b, u)
    assert g2[u] == -g[u]


def test_mutate_dual_simple():
    # one-vertex quiver, M = S_u: F = 1 + y_u, gdual = -e_u
    state = mutation.DualTracked([-1], {(0,): 1, (1,): 1})
    out = mutation.mutate_dual_state(state, mutation.Step.at([[0]], 0))
    assert out.gdual == [1]
    assert out.fpoly == {(0,): 1}
    back = mutation.mutate_dual_state(out, mutation.Step.at([[0]], 0))
    assert back.gdual == [-1] and back.fpoly == state.fpoly


def test_mutate_dual_a2_chain():
    # A2 quiver 1 -> 2, M the projective P1 (subreps: 0, S2, P1)
    b = [[0, 1], [-1, 0]]
    state = mutation.DualTracked([1, -1], {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    out = mutation.mutate_dual_state(state, mutation.Step.at(b, 0))
    assert all(c in (0, 1) for c in out.fpoly.values())
    assert out.fpoly[(0, 0)] == 1
    # double mutation returns the original
    b1 = mutation.mutate_b(b, 0)
    back = mutation.mutate_dual_state(out, mutation.Step.at(b1, 0))
    assert back.gdual == state.gdual and back.fpoly == state.fpoly


@functools.lru_cache(maxsize=None)
def _ice(key):
    """The full2 ice quiver of 'D4' or 'D4:2>1,3>2,4>2'."""
    name, _, orient = key.partition(":")
    arrows = [tuple(int(x) for x in a.split(">"))
              for a in orient.split(",")] if orient else None
    return System(name[0], int(name[1:]), arrows).ice()


INVOLUTION_KEYS = ["A3", "A4", "D4", "D4:2>1,3>2,4>2"]

# The full2 ice quivers above never reach a mutable row u without a positive
# entry (none among the B-matrices within 8, 5, 4 and 4 mutable steps of the
# initial seeds of A3, A4, D4 and D4 2>1,3>2,4>2), so the A2 quiver 0 -> 1
# without frozen vertices adds such steps: every row of it has a single
# nonzero entry, negative in row 1 of the initial seed.  Its state F = 1 + y_1 +
# y_0 y_1, g^vee = (0, -1) mutates without a failed check along each of
# the 254 walks of 1 to 7 steps.
A2_PATH = (mutation.DualTracked([0, -1], {(0, 0): 1, (0, 1): 1, (1, 1): 1}),
           [[0, 1], [-1, 0]])


@pytest.mark.parametrize("key", INVOLUTION_KEYS + ["A2 path"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mutate_dual_involutive(key, data):
    # mu_u . mu_u is the identity on every dual state along a random walk
    if key == "A2 path":
        state, b = A2_PATH
        assert all(x < 0 for _, x in mutation.Step.at(b, 1).row)
        vertices = [0, 1]
    else:
        iq = _ice(key)
        state = mutation._base_state(iq, data.draw(st.integers(1, iq.n)))
        b = iq.bmat_full
        vertices = [iq.index[v] for v in iq.mutable]
    walk = data.draw(st.lists(st.sampled_from(vertices), min_size=1,
                              max_size=7))
    for u in walk:
        step = mutation.Step.at(b, u)
        b_u = step.apply(b)
        mutated = mutation.mutate_dual_state(state, step)
        back = mutation.mutate_dual_state(mutated, mutation.Step.at(b_u, u))
        assert back == state
        state, b = mutated, b_u


def test_mutate_dual_check_survives_python_O():
    # F = y_0 has no constant term, so the mutated polynomial gets a
    # negative exponent; the check must still fire with asserts stripped
    script = textwrap.dedent("""
        import sys
        from arcones import mutation
        if __debug__:
            sys.exit("not running under -O")
        state = mutation.DualTracked([0], {(1,): 1})
        try:
            mutation.mutate_dual_state(state, mutation.Step.at([[0]], 0))
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("invalid F-polynomial accepted")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(arcones.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "negative exponent" in res.stdout


def test_mu_sequences_a2():
    iq = System("A", 2).ice()
    seqs = mutation.mu_sequences(iq)
    cat = iq.cat
    fs1 = cat.by_module[cat.ar.simples[1]]
    assert seqs.mu_sqrt_l == [fs1]
    assert seqs.mu_l == [fs1, fs1]
    assert seqs.pi[cat.by_label["O1-"]] == cat.by_label["Id1"]
    assert seqs.pi[fs1] == fs1


@pytest.mark.parametrize("letter,n", [("A", 2), ("A", 3), ("D", 4)])
def test_verify_cyclic(letter, n):
    report = mutation.verify_cyclic(System(letter, n).ice())
    assert report["all"], report


def test_verify_cyclic_g2_runs():
    # conjectural for valued types: record the outcome, no assertion
    report = mutation.verify_cyclic(System("G", 2).ice())
    assert set(report) >= {"sqrt_l_vs_pi", "l_vs_pi2", "l_cubed_identity",
                           "g_vector_lemma"}


@pytest.mark.parametrize("letter,n", [("A", 2), ("A", 3), ("D", 4)])
def test_mu_l_pi2_precondition(letter, n):
    assert mutation.check_mu_l_pi2(System(letter, n).ice())


def test_tv_fpoly_a2():
    iq = System("A", 2).ice()
    out = mutation.tv_subreps_via_fpoly(iq, 2)
    cat = iq.cat
    neg = cat.by_label["O2-"]
    assert len(out[neg]) == 2  # proper nonzero tails of the length-3 chain


def test_tv_fpoly_d4_total_44():
    # strict-subrep counts depend on the orientation; this one gives the
    # 44-inequality cone with the expected per-orbit counts
    iq = System("D", 4, [(1, 2), (2, 3), (2, 4)]).ice()
    total = 0
    counts = {"negative": [], "neutral": [], "positive": []}
    for i in range(1, 5):
        out = mutation.tv_subreps_via_fpoly(iq, i)
        for v, s in out.items():
            total += len(s)
            counts[v.kind].append(len(s))
    assert total == 44
    assert sorted(counts["negative"]) == [3, 3, 3, 3]
    assert sorted(counts["neutral"]) == sorted([7, 6, 1, 1])
    assert sorted(counts["positive"]) == sorted([1, 2, 7, 7])


def test_tv_fpoly_d4_default_runs():
    # the default (all-in) orientation has a larger cone; the internal
    # theta-vector assertions inside tv_subreps_via_fpoly validate each T_v
    iq = System("D", 4).ice()
    total = sum(len(s) for i in range(1, 5)
                for s in mutation.tv_subreps_via_fpoly(iq, i).values())
    assert total == 64


def test_walk_built_once_per_quiver(monkeypatch):
    calls = []
    build_walk = mutation.b_walk

    def counted(iq):
        calls.append(iq)
        return build_walk(iq)

    monkeypatch.setattr(mutation, "b_walk", counted)
    iq = System("D", 4).ice()
    for i in range(1, iq.n + 1):
        mutation.tv_subreps_via_fpoly(iq, i)
    assert mutation.check_mu_l_pi2(iq)
    mutation.verify_cyclic(iq)
    assert len(calls) == 1 and calls[0] is iq


def _tv_digest(sets):
    """sha256 of the T_v sets keyed by frozen vertex label, as
    perfbench/workloads.py tv_digest computes it."""
    data = sorted([v.label, sorted(map(list, s))] for v, s in sets.items())
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


# brute force refuses D5 and D6, so these digests (the tv_sha256 values of
# perfbench/references.json) are what fixes the F-polynomial output there
@pytest.mark.parametrize("letter,n,subreps,digest", [
    ("D", 5, 192,
     "5c61079c373e3f2d694c4d0831cf773ed9f95113049b1aa7e9956e490164aa2c"),
    ("D", 6, 625,
     "36989372f69c248d32f4f00484f31c22041adc6f1d40e434c194c93220d73be4"),
], ids=["D5", "D6"])
def test_tv_fpoly_pinned(letter, n, subreps, digest):
    sets = cone.tv_strict_sets(System(letter, n).ice(), "fpoly")
    assert sum(len(s) for s in sets.values()) == subreps
    assert _tv_digest(sets) == digest
