import collections
import functools
import hashlib
import json
import math
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


def test_step_apply_in_place():
    # Step.apply mutates the matrix it is given; mutate_b copies first
    b = [[0, 1, 0], [-1, 0, 2], [0, -2, 0]]
    before = [list(r) for r in b]
    out = mutation.mutate_b(b, 1)
    assert b == before and out != b
    mutation.Step.at(b, 1).apply(b)
    assert b == out


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


# exponent vectors as DualTracked keys
P = mutation.pack_exponents


def test_pack_exponents():
    assert P((0, 0)) == 0
    assert P((3, 0, 1)) == 3 + (1 << 16)
    assert P((255,)) == 255
    for bad in ((256,), (0, -1)):
        with pytest.raises(ValueError):
            P(bad)


def test_mutate_dual_simple():
    # one-vertex quiver, M = S_u: F = 1 + y_u, gdual = -e_u
    state = mutation.DualTracked([-1], {P((0,)): 1, P((1,)): 1})
    out = mutation.mutate_dual_state(state, mutation.Step.at([[0]], 0))
    assert out.gdual == [1]
    assert out.fpoly == {P((0,)): 1}
    back = mutation.mutate_dual_state(out, mutation.Step.at([[0]], 0))
    assert back.gdual == [-1] and back.fpoly == state.fpoly


def test_mutate_dual_a2_chain():
    # A2 quiver 1 -> 2, M the projective P1 (subreps: 0, S2, P1)
    b = [[0, 1], [-1, 0]]
    state = mutation.DualTracked([0, -1],
                                 {P((0, 0)): 1, P((0, 1)): 1, P((1, 1)): 1})
    out = mutation.mutate_dual_state(state, mutation.Step.at(b, 0))
    assert all(c in (0, 1) for c in out.fpoly.values())
    assert out.fpoly[P((0, 0))] == 1
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
A2_PATH = (mutation.DualTracked([0, -1],
                                {P((0, 0)): 1, P((0, 1)): 1, P((1, 1)): 1}),
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
        b_u = mutation.mutate_b(b, u)
        mutated = mutation.mutate_dual_state(state, step)
        back = mutation.mutate_dual_state(mutated, mutation.Step.at(b_u, u))
        assert back == state
        state, b = mutated, b_u


@pytest.mark.parametrize("key", INVOLUTION_KEYS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_mutate_dual_relabel_equivariant(key, data):
    # renaming the vertices commutes with mutation: the step taken from the
    # relabelled B-matrix is the relabelled step, and mutating the relabelled
    # state along it gives the relabelled result
    iq = _ice(key)
    perm = data.draw(st.permutations(range(len(iq.vertices))))
    state = mutation._base_state(iq, data.draw(st.integers(1, iq.n)))
    b = iq.bmat_full
    walk = data.draw(st.lists(st.sampled_from([iq.index[v]
                                               for v in iq.mutable]),
                              min_size=1, max_size=7))
    for u in walk:
        step = mutation.Step.at(b, u)
        moved = mutation.relabel_step(step, perm)
        assert moved == mutation.Step.at(mutation.relabel_b(b, perm), perm[u])
        mutated = mutation.mutate_dual_state(state, step)
        assert mutation.mutate_dual_state(
            mutation.relabel_dual_state(state, perm), moved) == \
            mutation.relabel_dual_state(mutated, perm)
        state, b = mutated, mutation.mutate_b(b, u)


def _run_python_O(body):
    """Run body under python -O with arcones importable; its stdout."""
    script = textwrap.dedent("""
        import sys
        from arcones import mutation
        if __debug__:
            sys.exit("not running under -O")
    """) + textwrap.dedent(body)
    src = os.path.dirname(os.path.dirname(os.path.abspath(arcones.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    return res.stdout


def test_mutate_dual_check_survives_python_O():
    # F = y_0 has no constant term, so the mutated polynomial gets a
    # negative exponent; the check must still fire with asserts stripped
    out = _run_python_O("""
        state = mutation.DualTracked([0], {mutation.pack_exponents((1,)): 1})
        try:
            mutation.mutate_dual_state(state, mutation.Step.at([[0]], 0))
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("invalid F-polynomial accepted")
    """)
    assert "negative exponent" in out


# Dual states whose mutation at 0 makes an exponent of 256, one past the
# 8-bit field of a packed key, each on one path only.  One vertex,
# g^vee = 256 e_0, F = 1: the one term, with q = 256, takes the binomial-row
# path to (1 + y_0)^256.  b_01 = -2, g^vee = -e_0, F = (1 + y_0)(1 + y_1^128):
# both groups, 1 + y_0 and its y_1^128 multiple, take the synthetic-division
# path, to 1 and to y_1^128 (1 + y_0)^256.
FIELD_OVERFLOW = [
    (mutation.DualTracked([256], {P((0,)): 1}), [[0]]),
    (mutation.DualTracked([-1, 0], {P((0, 0)): 1, P((1, 0)): 1,
                                    P((0, 128)): 1, P((1, 128)): 1}),
     [[0, -2], [2, 0]]),
]


@pytest.mark.parametrize("state,b", FIELD_OVERFLOW,
                         ids=["binomial row", "division"])
def test_mutate_dual_field_guard(state, b):
    # an exponent past 255 refuses the input instead of wrapping into
    # the next field
    with pytest.raises(NotImplementedError, match="exceeds 255"):
        mutation.mutate_dual_state(state, mutation.Step.at(b, 0))


def test_mutate_dual_field_limit_255():
    # (1 + y_0)^255 still fits, and mutates back to F = 1
    step = mutation.Step.at([[0]], 0)
    out = mutation.mutate_dual_state(mutation.DualTracked([255], {0: 1}), step)
    assert out.gdual == [-255]
    assert out.fpoly == {P((k,)): math.comb(255, k) for k in range(256)}
    back = mutation.mutate_dual_state(out, step)
    assert back == mutation.DualTracked([255], {0: 1})


def test_mutate_dual_field_guard_survives_python_O():
    # the FIELD_OVERFLOW states
    out = _run_python_O("""
        P = mutation.pack_exponents
        for state, b in (
            (mutation.DualTracked([256], {P((0,)): 1}), [[0]]),
            (mutation.DualTracked([-1, 0], {P((0, 0)): 1, P((1, 0)): 1,
                                            P((0, 128)): 1, P((1, 128)): 1}),
             [[0, -2], [2, 0]]),
        ):
            try:
                mutation.mutate_dual_state(state, mutation.Step.at(b, 0))
            except NotImplementedError as exc:
                print(exc)
            else:
                sys.exit("exponent 256 accepted")
    """)
    assert out.count("exceeds 255") == 2


def test_mu_sequences_a2():
    iq = System("A", 2).ice()
    walk = iq.walk
    cat = iq.cat
    fs1 = iq.index[cat.by_module[cat.ar.simples[1]]]
    # mu_sqrt_l = (f(S1)), so mu_l . mu_l mutates at f(S1) four times
    assert [step.u for step in walk.steps] == [fs1] * 4
    assert walk.steps[0] == mutation.Step.at(iq.bmat_full, fs1)
    for prev, step in zip(walk.steps, walk.steps[1:]):
        # mutating at f(S1) again flips the signs of its row and column
        assert step == mutation.Step(
            fs1, tuple((v, -x) for v, x in prev.row),
            tuple((v, -x) for v, x in prev.col))
    # pi renames vertex k as pi[k]
    assert walk.pi[iq.index[cat.by_label["O1-"]]] == \
        iq.index[cat.by_label["Id1"]]
    assert walk.pi == [iq.index[cat.pi(v)] for v in iq.vertices]
    assert walk.pi[fs1] == fs1


@pytest.mark.parametrize("letter,n", [("A", 2), ("A", 3), ("D", 4),
                                      ("B", 2), ("G", 2)])
def test_verify_cyclic(letter, n):
    report = mutation.verify_cyclic(System(letter, n).ice())
    # quarter 3 of the walk is quarter 0 relabelled by pi^3, valued types too
    assert report["quarter3_is_pi3"], report
    if letter in "AD":
        assert report["all"], report


def test_verify_cyclic_quarter3_counts_in_all(monkeypatch):
    build_walk = mutation.b_walk

    def planted(iq):
        walk = build_walk(iq)
        walk.quarter3_is_pi3 = False
        return walk

    monkeypatch.setattr(mutation, "b_walk", planted)
    report = mutation.verify_cyclic(System("A", 2).ice())
    assert not report["quarter3_is_pi3"] and not report["all"], report


def test_verify_cyclic_g2_runs():
    # conjectural for valued types: record the outcome, no assertion
    report = mutation.verify_cyclic(System("G", 2).ice())
    assert set(report) >= {"sqrt_l_vs_pi", "l_vs_pi2", "l_cubed_identity",
                           "g_vector_lemma", "quarter3_is_pi3"}


@pytest.mark.parametrize("letter,n", [("A", 2), ("A", 3), ("D", 4)])
def test_mu_l_pi2_precondition(letter, n):
    assert System(letter, n).ice().walk.mu_l_is_pi2


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
    assert iq.walk.mu_l_is_pi2
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


# brute force refuses E6 (total dimension 43 over a cap of 24), so these
# digests of tv_subreps_via_fpoly(iq, i) fix the F-polynomial output on the
# widest ice quiver (48 vertices) the packed exponents meet
@pytest.mark.parametrize("i,subreps,digest", [
    (1, 33, "b2013b2692c1830e79892e46d951ef9cddf04dbf908992787f90f7291803506b"),
    (2, 84, "44a8e043fdb7946ad912392f3f5c13f58563087cfe98e43c25368313c71e4274"),
    (3, 33, "f03b37369b0f838732eb8e4cc9881866274d8fac4d7f44088930b8adc0e971ac"),
    (4, 2931,
     "9db913aacba7efa68fc0f6b1b659cd1dc99d69e8b733881450c836be9210b941"),
    (5, 33, "a9239db0f99d3a27b8a2dc789b8ee662d9044df6f354e49214cfb9eb4a307a5f"),
    (6, 33, "15688b3ea15af6fc9adb8e4c1fc6046159b4fadb2227e26aea58426c6ea06641"),
], ids=["1", "2", "3", "4", "5", "6"])
def test_tv_fpoly_pinned_e6(i, subreps, digest):
    iq = _ice("E6")
    assert len(iq.vertices) == 48
    sets = mutation.tv_subreps_via_fpoly(iq, i)
    assert sum(len(s) for s in sets.values()) == subreps
    assert _tv_digest(sets) == digest


def _inverse(perm):
    inv = [0] * len(perm)
    for k, j in enumerate(perm):
        inv[j] = k
    return inv


def _plain_walk_subreps(iq, i):
    """tv_subreps_via_fpoly(iq, i) with every step of iq.walk sent through
    mutate_dual_state: T_{Id_{i*}} read off after half the walk, on
    mu_l(Delta) = pi^2(Delta), T_{O_i^+} after all of it, on pi^4(Delta);
    each is renamed back to Delta by the inverse permutation."""
    cat = iq.cat
    walk = iq.walk
    m = len(iq.vertices)
    pi2 = [walk.pi[j] for j in walk.pi]

    def unpack(state, perm):
        state = mutation.relabel_dual_state(state, perm)
        return {tuple(e.to_bytes(m, "little")) for e in state.fpoly}

    state = mutation._base_state(iq, i)
    out = {cat.by_label["O%d-" % i]: unpack(state, range(m))}
    half = len(walk.steps) // 2
    for step in walk.steps[:half]:
        state = mutation.mutate_dual_state(state, step)
    out[cat.by_label["Id%d" % cat.star[i]]] = unpack(state, _inverse(pi2))
    for step in walk.steps[half:]:
        state = mutation.mutate_dual_state(state, step)
    out[cat.by_label["O%d+" % i]] = unpack(
        state, _inverse([pi2[j] for j in pi2]))
    zero = (0,) * m
    return {v: {e for e in s if e not in (zero, iq.tv_dim(v))}
            for v, s in out.items()}


WALK_KEYS = ["A2", "A3", "A4", "A5", "A6", "D4", "D4:2>1,3>2,4>2", "D5"]


@pytest.mark.parametrize("key", ["A3", "D4", "D4:2>1,3>2,4>2"])
def test_read_off_is_relabel_dual_state(key):
    # _read_off renames vertex k as p[k], the one convention of
    # relabel_dual_state, relabel_step and relabel_b
    iq = _ice(key)
    cat = iq.cat
    walk = iq.walk
    m = len(iq.vertices)
    pi = [iq.index[cat.pi(v)] for v in iq.vertices]
    pi2 = [pi[j] for j in pi]
    half = len(walk.steps) // 2
    for i in range(1, iq.n + 1):
        state = mutation._base_state(iq, i)
        for steps, label, perm in (
                (walk.steps[:half], "Id%d" % cat.star[i], _inverse(pi2)),
                (walk.steps[half:], "O%d+" % i,
                 _inverse([pi2[j] for j in pi2]))):
            for step in steps:
                state = mutation.mutate_dual_state(state, step)
            moved = mutation.relabel_dual_state(state, perm)
            assert mutation._read_off(iq, state, cat.by_label[label],
                                      perm) == \
                {tuple(e.to_bytes(m, "little")) for e in moved.fpoly}, label


@pytest.mark.parametrize("key", WALK_KEYS)
def test_tv_fpoly_equals_plain_walk(key):
    iq = _ice(key)
    for i in range(1, iq.n + 1):
        assert mutation.tv_subreps_via_fpoly(iq, i) == \
            _plain_walk_subreps(iq, i), i


# vertices whose state after three quarters is pi^3 of the base state, so
# quarter 3 is read off quarter 0 instead of mutated through; all of them
# have i = i*, and no vertex of type A is among them
QUARTER3_REUSED = {"A2": (), "A3": (), "A4": (), "A5": (), "A6": (),
                   "D4": (1, 2, 3, 4), "D4:2>1,3>2,4>2": (1, 2, 3, 4),
                   "D5": (1, 2, 3)}


@pytest.mark.parametrize("key", WALK_KEYS)
def test_tv_fpoly_quarter3_reuse(key, monkeypatch):
    iq = _ice(key)
    walk = iq.walk
    assert walk.quarter3_is_pi3
    calls = []
    real = mutation.mutate_dual_state

    def counted(state, step):
        calls.append(step)
        return real(state, step)

    monkeypatch.setattr(mutation, "mutate_dual_state", counted)
    for i in range(1, iq.n + 1):
        calls.clear()
        mutation.tv_subreps_via_fpoly(iq, i)
        if i in QUARTER3_REUSED[key]:
            assert calls == walk.steps[:3 * len(walk.steps) // 4], i
        else:
            assert calls == walk.steps, i


def test_tv_fpoly_without_quarter3_reuse(monkeypatch):
    # a walk whose quarter 3 is not taken as pi^3 of quarter 0 is mutated
    # through in full, to the same sets
    iq = _ice("D4")
    expected = {i: mutation.tv_subreps_via_fpoly(iq, i)
                for i in range(1, 5)}
    monkeypatch.setattr(iq.walk, "quarter3_is_pi3", False)
    calls = []
    real = mutation.mutate_dual_state

    def counted(state, step):
        calls.append(step)
        return real(state, step)

    monkeypatch.setattr(mutation, "mutate_dual_state", counted)
    for i in range(1, 5):
        calls.clear()
        assert mutation.tv_subreps_via_fpoly(iq, i) == expected[i]
        assert calls == iq.walk.steps


def _paper_quarters(iq):
    """The four quarters of mu_l . mu_l in the paper's order, each step taken
    with Step.at: mu_sqrt_l mutates, for each mutable vertex at (i, t) in
    orbit coordinates, by t and then by the topological order of i, at
    tau^s O_i^+ for s = 1 .. t_i - t; then pi(mu_sqrt_l), then both again."""
    cat = iq.cat
    pos = {i: k for k, i in enumerate(cat.ar.Q.topological_order())}
    sqrt_l = []
    for p in sorted(iq.mutable,
                    key=lambda p: (cat.orbit[p][1], pos[cat.orbit[p][0]])):
        i, t = cat.orbit[p]
        chain = cat.orbits[i]
        sqrt_l.extend(iq.index[v] for v in chain[1:len(chain) - t])
    pi = [iq.index[cat.pi(v)] for v in iq.vertices]
    b = iq.bmat_full
    quarters = []
    for seq in (sqrt_l, [pi[u] for u in sqrt_l]) * 2:
        quarters.append([])
        for u in seq:
            step = mutation.Step.at(b, u)
            quarters[-1].append(step)
            b = mutation.mutate_b(b, u)
    return quarters


@pytest.mark.parametrize("key", WALK_KEYS + ["D6"])
def test_walk_reorders_paper_quarters(key):
    # quarters 0 and 3 hold the paper's steps in another order, quarters 1
    # and 2 the paper's steps in its order, and every T_v state after each
    # quarter is the one the paper's order reaches
    iq = _ice(key)
    steps = iq.walk.steps
    paper = _paper_quarters(iq)
    q = len(paper[0])
    assert len(steps) == 4 * q
    assert steps[q:3 * q] == paper[1] + paper[2]
    for k in (0, 3):
        assert collections.Counter(steps[k * q:(k + 1) * q]) == \
            collections.Counter(paper[k])
    for i in range(1, iq.n + 1):
        state = mutation._base_state(iq, i)
        for k, quarter in enumerate(paper):
            walked = mutation._mutate_along(state, steps[k * q:(k + 1) * q])
            state = mutation._mutate_along(state, quarter)
            assert walked == state, (i, k)


# the work of tv_subreps_via_fpoly with quarters 0 and 3 walked latest
# first: term-steps are the terms of every state mutate_dual_state takes,
# and the largest |F| is over every state it takes or returns.  The paper's
# order of quarter 0 does 79 116 term-steps with |F| up to 5 226 at D6
# i = 4, and 2 117 769 with |F| up to 103 916 at E6 i = 4 (the branch
# vertex), so walking it again fails here.
@pytest.mark.parametrize("key,i,term_steps,largest", [
    ("D6", 4, 34440, 649),
    ("E6", 4, 296098, 3787),
], ids=["D6-4", "E6-4"])
def test_fpoly_work_pinned(key, i, term_steps, largest, monkeypatch):
    real = mutation.mutate_dual_state
    work = [0, 0]

    def counted(state, step):
        out = real(state, step)
        work[0] += len(state.fpoly)
        work[1] = max(work[1], len(state.fpoly), len(out.fpoly))
        return out

    monkeypatch.setattr(mutation, "mutate_dual_state", counted)
    mutation.tv_subreps_via_fpoly(_ice(key), i)
    assert work == [term_steps, largest]


# (steps _quiet takes, steps taken) by tv_subreps_via_fpoly over every T_v
QUIET_STEPS = {"A2": (0, 8), "A3": (14, 48), "A4": (72, 160),
               "A5": (220, 400), "A6": (520, 840), "D4": (52, 144),
               "D4:2>1,3>2,4>2": (56, 144), "D5": (252, 510),
               "D6": (548, 1080)}


@pytest.mark.parametrize("key", WALK_KEYS + ["D6"])
def test_quiet_steps_match_full_expansion(key, monkeypatch):
    # every step _quiet takes returns the state the full group expansion
    # returns, and it takes exactly the steps that leave the state as it is
    real_quiet = mutation._quiet
    real = mutation.mutate_dual_state
    seen = [0, 0]

    def both(state, step):
        quiet = real_quiet(state, step)
        out = real(state, step)
        monkeypatch.setattr(mutation, "_quiet", lambda _state, _step: False)
        try:
            full = real(state, step)
        finally:
            monkeypatch.setattr(mutation, "_quiet", real_quiet)
        assert out == full
        assert quiet == (full == state)
        seen[0] += quiet
        seen[1] += 1
        return out

    monkeypatch.setattr(mutation, "mutate_dual_state", both)
    iq = _ice(key)
    for i in range(1, iq.n + 1):
        mutation.tv_subreps_via_fpoly(iq, i)
    assert tuple(seen) == QUIET_STEPS[key]


# quiet steps (g_u = 0, and no exponent at u or at a vertex of row u) on
# states that are no F-polynomial: the state is returned only after the
# checks of the full route
QUIET_INVALID = [
    (mutation.DualTracked([0, 0], {P((0, 1)): 1}), "no constant term 1"),
    (mutation.DualTracked([0, 0], {0: 1, P((0, 1)): -1}),
     "negative F-polynomial coefficient"),
]


@pytest.mark.parametrize("state,message", QUIET_INVALID,
                         ids=["no constant term", "negative coefficient"])
def test_quiet_step_checks_output(state, message):
    step = mutation.Step.at([[0, 0], [0, 0]], 0)
    assert mutation._quiet(state, step)
    with pytest.raises(RuntimeError, match=message):
        mutation.mutate_dual_state(state, step)


def test_quiet_step_check_survives_python_O():
    # the QUIET_INVALID states
    out = _run_python_O("""
        P = mutation.pack_exponents
        step = mutation.Step.at([[0, 0], [0, 0]], 0)
        for state in (mutation.DualTracked([0, 0], {P((0, 1)): 1}),
                      mutation.DualTracked([0, 0], {0: 1, P((0, 1)): -1})):
            if not mutation._quiet(state, step):
                sys.exit("not a quiet step")
            try:
                mutation.mutate_dual_state(state, step)
            except RuntimeError as exc:
                print(exc)
            else:
                sys.exit("invalid F-polynomial accepted")
    """)
    assert "no constant term 1" in out
    assert "negative F-polynomial coefficient" in out


def _swap_dependent(steps, order):
    """order with its first adjacent pair of dependent steps swapped: the
    later of the two in the paper's order at the same vertex as the
    earlier, or in its row."""
    for p in range(len(order) - 1):
        k, j = order[p], order[p + 1]
        if k < j and (steps[k].u == steps[j].u or
                      any(v == steps[j].u for v, _ in steps[k].row)):
            order[p], order[p + 1] = j, k
            return order
    raise AssertionError("no adjacent dependent steps")


@pytest.mark.parametrize("plant,message", [
    (_swap_dependent, "with another row or column"),
    (lambda steps, order: order[:-1], "ends at another B-matrix"),
], ids=["swap dependent steps", "drop last step"])
def test_b_walk_refuses_planted_order(plant, message, monkeypatch):
    # a swap of two steps that do not commute meets a step with another
    # row; an order missing a step ends at another B-matrix
    real = mutation._latest_first
    monkeypatch.setattr(mutation, "_latest_first",
                        lambda steps: plant(steps, real(steps)))
    with pytest.raises(RuntimeError, match=message):
        System("D", 4).ice().walk


def test_b_walk_planted_swap_survives_python_O():
    # the swap of test_b_walk_refuses_planted_order
    out = _run_python_O("""
        from arcones.system import System
        real = mutation._latest_first

        def swapped(steps):
            order = real(steps)
            for p in range(len(order) - 1):
                k, j = order[p], order[p + 1]
                if k < j and (steps[k].u == steps[j].u or
                              any(v == steps[j].u for v, _ in steps[k].row)):
                    order[p], order[p + 1] = j, k
                    return order
            sys.exit("no adjacent dependent steps")

        mutation._latest_first = swapped
        try:
            System("D", 4).ice().walk
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("planted order accepted")
    """)
    assert "with another row or column" in out
