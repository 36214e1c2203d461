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
    res = run("build", "--type", "D5", "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["cone"] == {"supported": True, "columns": 192}


@pytest.mark.parametrize("type_", ["A1", "A3", "A4", "A5", "A6", "D6", "E6"])
def test_build_exit_0(tmp_path, type_):
    # the rest of the build half of the exit-code matrix (A2, D4 and D5
    # are above)
    res = run("build", "--type", type_, "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["cone"]["supported"]
    assert os.path.exists(tmp_path / "hmatrix.csv")


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


@pytest.mark.parametrize("variant", ["u", "sharp", "l", "r"])
def test_build_variant_writes_its_ice_quiver(tmp_path, variant):
    # icequiver.*, the H matrix and sigma all describe the variant's quiver
    res = run("build", "--type", "A2", "--variant", variant,
              "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    quiver = json.load(open(tmp_path / "icequiver.json"))
    assert quiver["variant"] == variant
    ids = [v["id"] for v in quiver["vertices"]]
    assert json.load(open(tmp_path / "hmatrix.json"))["ambient"] == ids
    assert json.load(open(tmp_path / "summary.json"))["vertices"] == len(ids)
    if variant in ("u", "sharp"):
        rows = json.load(open(tmp_path / "sigma.json"))["rows"]
        assert list(rows) == ids


def test_build_g2_cone_unsupported(tmp_path):
    res = run("build", "--type", "G2", "--out", str(tmp_path))
    assert res.exit_code == 0
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["cone"] == {"supported": False,
                               "reason": "valued type: quiver and catalog "
                                         "only"}
    assert os.path.exists(tmp_path / "quiver.json")
    assert not os.path.exists(tmp_path / "hmatrix.csv")


def test_type_carries_the_rank(tmp_path):
    # the rank is read from --type only; --rank and build --cache-dir are
    # click usage errors
    res = run("build", "--type", "D", "--out", str(tmp_path))
    assert res.exit_code == 2
    assert "--type D4" in res.output
    res = run("build", "--type", "A2", "--cache-dir", str(tmp_path),
              "--out", str(tmp_path))
    assert res.exit_code == 2
    assert "No such option" in res.output and "--cache-dir" in res.output
    res = run("count", "--type", "A2", "--rank", "2", "--triple", "1,0",
              "0,1", "1,1")
    assert res.exit_code == 2
    assert "No such option" in res.output and "--rank" in res.output
    assert not os.listdir(tmp_path)


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


def test_count_d6_triple_check():
    # omega_1 (x) omega_1 = 2 omega_1 + omega_2 + 0 on D6, each once
    w1 = "1,0,0,0,0,0"
    lams = ["2,0,0,0,0,0", "0,1,0,0,0,0", "0,0,0,0,0,0"]
    args = ["count", "--type", "D6", "--check"]
    for lam in lams:
        args += ["--triple", w1, w1, lam]
    res = run(*args)
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[1:] == [
        "1 0 0 0 0 0,1 0 0 0 0 0,%s,1,1,yes" % lam.replace(",", " ")
        for lam in lams]


def test_count_check_decomposes_each_pair_once(monkeypatch):
    calls = []
    decompose = lieoracle.tensor_decomposition

    def counted(cd, mu, nu):
        calls.append((tuple(mu), tuple(nu)))
        return decompose(cd, mu, nu)

    monkeypatch.setattr(lieoracle, "tensor_decomposition", counted)
    res = run("count", "--type", "A2", "--grid", "1", "--check")
    assert res.exit_code == 0, res.output
    doms = list(itertools.product(range(2), repeat=2))
    assert sorted(calls) == sorted(itertools.product(doms, doms))
    rows = res.output.strip().splitlines()[1:]
    assert len(rows) > len(calls)
    assert all(row.endswith(",yes") for row in rows)


def test_count_grid_check_a3():
    res = run("count", "--type", "A3", "--grid", "1", "--check")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "mu,nu,lambda,count,oracle,match"
    assert all(line.endswith(",yes") for line in lines[1:])


def test_count_u_grid_sorted_sumset():
    # the grid is every sum h . sigma with 0 <= h_v <= 2, listed sorted
    sigma = System("A", 3).sigma("u")
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


def _triples(mu, nu, lams):
    args = ["--check"]
    for lam in lams:
        args += ["--triple", mu, nu, lam]
    return args


@pytest.mark.parametrize("args", [
    ["--type", "A1", "--grid", "2", "--check"],
    ["--type", "A4"] + _triples("1,0,0,0", "0,0,0,1",
                                ["1,0,0,1", "0,0,0,0", "0,1,0,0"]),
    ["--type", "A5"] + _triples("0,1,0,0,0", "0,1,0,0,0",
                                ["0,2,0,0,0", "1,0,1,0,0", "0,0,0,1,0",
                                 "0,0,0,0,0"]),
    ["--type", "A6"] + _triples("1,0,0,0,0,0", "0,0,0,0,0,1",
                                ["1,0,0,0,0,1", "0,0,0,0,0,0",
                                 "0,1,0,0,0,0"]),
], ids=["A1", "A4", "A5", "A6"])
def test_count_check_exit_0(args):
    # A1 has no kernel coordinates and only constant rows; A4 to A6 count
    # values 1 and 0 in wider cones
    res = run("count", *args)
    assert res.exit_code == 0, res.output
    rows = res.output.strip().splitlines()[1:]
    assert {row.rsplit(",", 3)[1] for row in rows} == {"0", "1"}
    assert all(row.endswith(",yes") for row in rows)


def test_count_e6_zero_check_exit_0():
    # E6 end to end: T_v sets by mutation, the 3147-column cone, one count
    zero = "0,0,0,0,0,0"
    res = run("count", "--type", "E6", "--triple", zero, zero, zero,
              "--check")
    assert res.exit_code == 0, res.output
    assert res.output.strip().splitlines()[1:] == \
        ["0 0 0 0 0 0,0 0 0 0 0 0,0 0 0 0 0 0,1,1,yes"]


_A2_TRIPLE = ["--triple", "1,0", "0,1", "1,1"]
_ORIENT_FORM = "is not of the form i>j,... with integer vertices"
_WEIGHT_FORM = "is not of the form n,n,... with integer entries"


@pytest.mark.parametrize("args, message", [
    (["--orient", "2-1"] + _A2_TRIPLE,
     "error: --orient '2-1' " + _ORIENT_FORM),
    (["--orient", "1>2>1"] + _A2_TRIPLE,
     "error: --orient '1>2>1' " + _ORIENT_FORM),
    (["--orient", "x>y"] + _A2_TRIPLE,
     "error: --orient 'x>y' " + _ORIENT_FORM),
    (["--triple", "1,0", "0,1", "-1,2", "--check"],
     "all three weights must be dominant"),
    (["--triple", "1,a", "0,1", "1,1"],
     "error: --triple weight '1,a' " + _WEIGHT_FORM),
    (["--variant", "sharp", "--target", "1,1/0,x"],
     "error: --target weight '0,x' " + _WEIGHT_FORM),
], ids=["orient 2-1", "orient 1>2>1", "orient x>y", "non-dominant check",
        "triple 1,a", "target 0,x"])
def test_count_malformed_input_exit_2(args, message):
    # a malformed orientation or weight, and a non-dominant weight under
    # --check, are invalid input: exit 2 with an error naming the option
    # and the expected form, and no CSV
    res = run("count", "--type", "A2", *args)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert ",count" not in res.output


@pytest.mark.parametrize("type_", ["Dx", "D", "D4x", "4", "D-4"])
def test_malformed_type_exit_2(type_):
    # --type is a letter and a rank; anything else is exit 2 with an error
    # naming --type and that form, not Python's own int() message
    res = run("count", "--type", type_, "--triple", "1", "1", "1")
    assert res.exit_code == 2, res.output
    assert ("error: --type %r is not a letter and a rank (e.g. --type D4)"
            % type_) in res.output
    assert "invalid literal" not in res.output


def test_count_invalid_input_exit_2():
    res = run("count", "--type", "X9", "--triple", "1", "1", "1")
    assert res.exit_code == 2
    res = run("count", "--type", "A2")
    assert res.exit_code == 2
    res = run("count", "--type", "G2", "--triple", "1,0", "1,0", "1,0")
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ("count", "--type", "A2", "--grid", "-1"),
    ("verify", "oracle", "--type", "A2", "--max", "-1"),
    ("verify", "kostant", "--type", "A2", "--max", "-1"),
], ids=["count --grid", "verify oracle --max", "verify kostant --max"])
def test_negative_grid_bound_exit_2(args):
    # a negative bound is a usage error naming its option, not an empty
    # grid that passes
    res = run(*args)
    assert res.exit_code == 2
    assert "Invalid value for '%s'" % args[-2] in res.output
    assert "pass" not in res.output


def test_verify_mutation_d4():
    res = run("verify", "mutation", "--type", "D4")
    assert res.exit_code == 0
    assert "pass" in res.output


def test_verify_kostant_a2_max4():
    res = run("verify", "kostant", "--type", "A2", "--max", "4")
    assert res.exit_code == 0


def test_verify_kostant_planted_oracle_exit_1(monkeypatch, tmp_path):
    real = lieoracle.kostant_partition

    def planted(cd, gamma):
        return real(cd, gamma) + (tuple(gamma) == (1, 1))

    monkeypatch.setattr(lieoracle, "kostant_partition", planted)
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
    assert not iq.walk.mu_l_is_pi2
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
    real = mutation.tv_subreps_via_fpoly

    def planted(iq, i):
        sets = real(iq, i)
        if i == 1:
            v = min(sets, key=lambda v: v.label)
            sets[v] = set(list(sets[v])[1:])
        return sets

    monkeypatch.setattr(mutation, "tv_subreps_via_fpoly", planted)
    res = run("verify", "fpoly", "--type", "A2")
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_verify_structural_d4_report(tmp_path):
    # the suite judges the system it was given: every graded variant counts
    # its zero slice once; the columns are reported, not judged (prune's
    # kept counts are pinned in test_cone.py)
    out = tmp_path / "report.json"
    for orient, columns in [([], 64), (["--orient", "2>1,3>2,4>2"], 44)]:
        res = run("verify", "structural", "--type", "D4", *orient,
                  "--out", str(out))
        assert res.exit_code == 0, (orient, res.output)
        s = json.load(open(out))["suites"]["structural"]
        assert s["passed"], orient
        assert s["zero_counts"] == {"full2": 1, "sharp": 1, "u": 1}, orient
        assert s["columns"] == columns, orient
        assert "orientation" not in s, orient


@pytest.mark.parametrize("type_,columns", [("D5", 192), ("D6", 625)])
def test_verify_structural_d5_d6_exit_0(tmp_path, type_, columns):
    # the suite builds and counts every graded variant of D5 and D6 and
    # reports the columns only
    out = tmp_path / "report.json"
    res = run("verify", "structural", "--type", type_, "--out", str(out))
    assert res.exit_code == 0, res.output
    s = json.load(open(out))["suites"]["structural"]
    assert s["passed"]
    assert s["zero_counts"] == {"full2": 1, "sharp": 1, "u": 1}
    assert s["columns"] == columns


def test_verify_structural_planted_zero_count_exit_1(monkeypatch, tmp_path):
    # a family whose zero slice counts 2 is not a polytope family
    real = count.SliceFamily.count
    monkeypatch.setattr(count.SliceFamily, "count",
                        lambda self, t: real(self, t) + (not any(t)))
    out = tmp_path / "report.json"
    res = run("verify", "structural", "--type", "A2", "--out", str(out))
    assert res.exit_code == 1, res.output
    assert "FAIL" in res.output
    s = json.load(open(out))["suites"]["structural"]
    assert s["zero_counts"] == {"full2": 2, "sharp": 2, "u": 2}


@pytest.mark.parametrize("args", [
    ("verify", "structural", "--type", "A2"),
    ("count", "--type", "A2", "--triple", "1,0", "0,1", "1,1"),
], ids=["verify structural", "count"])
def test_missing_bounding_functional_exit_3(monkeypatch, args):
    # the bounding-functional LPs (the only lp_min calls given a start)
    # planted to fail: an unbounded slice is an internal fault, not a count
    real = count.lp_min
    monkeypatch.setattr(count, "lp_min", lambda *a, **kw: (
        ("infeasible", None, None) if "start" in kw else real(*a, **kw)))
    res = run(*args)
    assert res.exit_code == 3, res.output
    assert "internal error: no bounding functional: coordinate 0 is " \
        "unbounded below" in res.output
    assert "pass" not in res.output and ",count" not in res.output


@pytest.mark.parametrize("args", [
    ("verify", "structural", "--type", "G2"),
    ("verify", "kostant", "--type", "B2", "--max", "1"),
    ("verify", "weights", "--type", "G2", "--max", "1"),
    ("verify", "all", "--type", "G2", "--max", "1"),
    ("count", "--type", "G2", "--triple", "1,0", "1,0", "1,0"),
    ("count", "--type", "B2", "--variant", "u", "--grid", "1"),
], ids=["structural G2", "kostant B2", "weights G2", "all G2", "count G2",
        "count u B2"])
def test_valued_type_cone_refused_exit_2(args):
    # System.cone refuses valued types, so every command that needs a cone
    # exits 2 with its reason
    res = run(*args)
    assert res.exit_code == 2, res.output
    assert "valued type: quiver and catalog only" in res.output
    assert "pass" not in res.output


@pytest.mark.parametrize("suite", ["mutation", "oracle"])
def test_valued_type_suites_without_cone_run(suite):
    res = run("verify", suite, "--type", "G2")
    assert res.exit_code == 0, res.output
    assert "pass" in res.output


def test_verify_all_a2():
    res = run("verify", "all", "--type", "A2", "--max", "1")
    assert res.exit_code == 0
    assert res.output.count("pass") == 6


def test_verify_report_times_each_suite(tmp_path):
    out = tmp_path / "report.json"
    res = run("verify", "all", "--type", "A2", "--max", "1", "--out", str(out))
    assert res.exit_code == 0
    suites = json.load(open(out))["suites"]
    assert len(suites) == 6
    for result in suites.values():
        assert result["seconds"] >= 0
