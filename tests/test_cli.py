import itertools
import json
import os

import pytest
from click.testing import CliRunner

from arcones import cli, cone, count, lieoracle, mutation
from arcones.system import System


def run(*args):
    return CliRunner().invoke(cli.main, list(args))


def test_build_a2(tmp_path):
    res = run("build", "--type", "A2", "--out", str(tmp_path))
    assert res.exit_code == 0
    quiver = json.load(open(tmp_path / "icequiver.json"))
    assert len(quiver["vertices"]) == 7
    h = json.load(open(tmp_path / "hmatrix.json"))
    assert h["format"] == 1


def test_build_d4_44_columns(tmp_path):
    res = run("build", "--type", "D4", "--orient", "2>1,3>2,4>2",
              "--out", str(tmp_path))
    assert res.exit_code == 0
    header = open(tmp_path / "hmatrix.csv").readline().strip().split(",")
    assert len(header) - 1 == 44


def test_build_d5_via_fpoly(tmp_path):
    # brute force refuses D5, so the T_v sets come from F-polynomials
    res = run("build", "--type", "D5", "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["cone"] == {"supported": True, "columns": 192}


@pytest.mark.parametrize("variant", ["l", "r"])
def test_build_a2_ungraded_variant(tmp_path, variant):
    # l and r carry no weight configuration, so no sigma.json is written
    res = run("build", "--type", "A2", "--variant", variant,
              "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["sigma"] == {"written": False,
                                "reason": "variant %s has no grading"
                                          % variant}
    assert summary["cone"]["supported"]
    assert os.path.exists(tmp_path / "hmatrix.csv")
    assert not os.path.exists(tmp_path / "sigma.json")


def test_build_g2_cone_unsupported(tmp_path):
    res = run("build", "--type", "G2", "--out", str(tmp_path))
    assert res.exit_code == 0
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["cone"] == {"supported": False,
                               "reason": "valued type: quiver and catalog "
                                         "only"}
    assert os.path.exists(tmp_path / "quiver.json")
    assert not os.path.exists(tmp_path / "hmatrix.csv")


def test_build_cache_idempotent(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "cache"
    run("build", "--type", "A2", "--cache-dir", str(c), "--out", str(a))
    run("build", "--type", "A2", "--cache-dir", str(c), "--out", str(b))
    for name in os.listdir(a):
        assert open(a / name).read() == open(b / name).read()


def test_count_triple_check():
    res = run("count", "--type", "A2", "--triple", "1,0", "0,1", "1,1",
              "--check")
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == "1 0,0 1,1 1,1,1,yes"


def test_count_d4_e2_cube():
    res = run("count", "--type", "D4", "--triple", "0,1,0,0", "0,1,0,0",
              "0,1,0,0")
    assert res.exit_code == 0
    assert res.output.splitlines()[1].endswith(",1")


def test_count_d5_triple_check():
    res = run("count", "--type", "D5", "--triple", "1,0,0,0,0", "1,0,0,0,0",
              "0,1,0,0,0", "--check")
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[1] == \
        "1 0 0 0 0,1 0 0 0 0,0 1 0 0 0,1,1,yes"


def test_count_grid_check_a3():
    res = run("count", "--type", "A3", "--grid", "1", "--check")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "mu,nu,lambda,count,oracle,match"
    assert all(line.endswith(",yes") for line in lines[1:])


def test_count_u_grid_sorted_sumset():
    # the grid is every sum h . sigma with 0 <= h_v <= 2, listed sorted
    sigma = System("A", 3).sigma("u").sigma
    want = sorted({tuple(sum(hk * row[j] for hk, row in zip(h, sigma))
                         for j in range(3))
                   for h in itertools.product(range(3), repeat=len(sigma))})
    res = run("count", "--type", "A3", "--variant", "u", "--grid", "2")
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "gamma,count"
    got = [tuple(int(x) for x in line.split(",")[0].split())
           for line in lines[1:]]
    assert got == want


def test_count_sharp_target():
    res = run("count", "--type", "A2", "--variant", "sharp", "--target",
              "1,1/0,0", "--check")
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == "1 1,0 0,2,2,yes"


def test_count_invalid_input_exit_2():
    res = run("count", "--type", "X9", "--triple", "1", "1", "1")
    assert res.exit_code == 2
    res = run("count", "--type", "A2")
    assert res.exit_code == 2
    res = run("count", "--type", "G2", "--triple", "1,0", "1,0", "1,0")
    assert res.exit_code == 2


def test_verify_mutation_d4():
    res = run("verify", "mutation", "--type", "D4")
    assert res.exit_code == 0
    assert "pass" in res.output


def test_verify_kostant_a2_max4():
    res = run("verify", "kostant", "--type", "A2", "--max", "4")
    assert res.exit_code == 0


def test_verify_kostant_planted_oracle_exit_1(monkeypatch, tmp_path):
    real = count.kostant_partition

    def planted(cd, gamma):
        return real(cd, gamma) + (tuple(gamma) == (1, 1))

    monkeypatch.setattr(count, "kostant_partition", planted)
    out = tmp_path / "report.json"
    res = run("verify", "kostant", "--type", "A2", "--max", "1",
              "--out", str(out))
    assert res.exit_code == 1
    assert "FAIL" in res.output
    assert json.load(open(out))["suites"]["kostant"]["mismatches"] == \
        [[[1, 1]]]


def test_verify_weights_planted_oracle_exit_1(monkeypatch, tmp_path):
    real = lieoracle.freudenthal

    def planted(cd, mu):
        mult = dict(real(cd, mu))
        if tuple(mu) == (1, 1):
            mult[(0, 0)] += 1
        return mult

    monkeypatch.setattr(lieoracle, "freudenthal", planted)
    out = tmp_path / "report.json"
    res = run("verify", "weights", "--type", "A2", "--max", "1",
              "--out", str(out))
    assert res.exit_code == 1
    assert "FAIL" in res.output
    assert json.load(open(out))["suites"]["weights"]["mismatches"] == \
        [[[1, 1], [0, 0]]]


def test_verify_fpoly_d5_refused_exit_2():
    # the suite compares against brute force, which does not handle D5
    res = run("verify", "fpoly", "--type", "D5")
    assert res.exit_code == 2
    assert "arrow between dim-2 vertices" in res.output


def test_build_fpoly_precondition_failure_exit_3(tmp_path, monkeypatch):
    # D5 takes the F-polynomial route; a failed mu_l = pi^2 precondition is
    # an internal error there, since no other route handles D5
    build_walk = mutation.b_walk

    def planted(iq):
        walk = build_walk(iq)
        walk.mu_l_is_pi2 = False
        return walk

    monkeypatch.setattr(mutation, "b_walk", planted)
    iq = System("A", 3).ice()
    assert not mutation.check_mu_l_pi2(iq)
    with pytest.raises(RuntimeError, match=r"mu_l\(Delta\) != pi\^2"):
        mutation.tv_subreps_via_fpoly(iq, 1)
    res = run("build", "--type", "D5", "--out", str(tmp_path))
    assert res.exit_code == 3
    assert "mu_l(Delta) != pi^2(Delta)" in res.output
    assert "fall back" not in res.output


def test_verify_all_bruteforce_once(monkeypatch):
    calls = []
    real = cone.strict_subreps

    def counted(rep, q):
        calls.append(q)
        return real(rep, q)

    monkeypatch.setattr(cone, "strict_subreps", counted)
    res = run("verify", "all", "--type", "A2", "--max", "1")
    assert res.exit_code == 0, res.output
    # one GF(2) and one GF(3) enumeration per frozen vertex of A2's full2
    # ice quiver (6 of its 7 vertices), for the whole run
    assert calls.count(2) == calls.count(3) == 6


def test_verify_fpoly_mismatch_exit_1(monkeypatch):
    real = cone.tv_strict_sets

    def planted(iq, source):
        sets = real(iq, source)
        v = min(sets, key=lambda v: v.label)
        sets[v] = set(list(sets[v])[1:])
        return sets

    monkeypatch.setattr(cone, "tv_strict_sets", planted)
    res = run("verify", "fpoly", "--type", "A2")
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_verify_structural_d4_report(tmp_path):
    out = tmp_path / "report.json"
    res = run("verify", "structural", "--type", "D4", "--out", str(out))
    assert res.exit_code == 0
    rep = json.load(open(out))
    s = rep["suites"]["structural"]
    assert s["passed"] and s["columns"] == 44 and s["after_prune"] == 44


def test_verify_all_a2():
    res = run("verify", "all", "--type", "A2", "--max", "1")
    assert res.exit_code == 0
    assert res.output.count("pass") == 6
