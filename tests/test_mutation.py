import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcones
from arcones import mutation
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
    out = mutation.mutate_dual_state(state, [[0]], 0)
    assert out.gdual == [1]
    assert out.fpoly == {(0,): 1}
    back = mutation.mutate_dual_state(out, [[0]], 0)
    assert back.gdual == [-1] and back.fpoly == state.fpoly


def test_mutate_dual_a2_chain():
    # A2 quiver 1 -> 2, M the projective P1 (subreps: 0, S2, P1)
    b = [[0, 1], [-1, 0]]
    state = mutation.DualTracked([1, -1], {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    out = mutation.mutate_dual_state(state, b, 0)
    assert all(c in (0, 1) for c in out.fpoly.values())
    assert out.fpoly[(0, 0)] == 1
    # double mutation returns the original
    b1 = mutation.mutate_b(b, 0)
    back = mutation.mutate_dual_state(out, b1, 0)
    assert back.gdual == state.gdual and back.fpoly == state.fpoly


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
            mutation.mutate_dual_state(state, [[0]], 0)
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
