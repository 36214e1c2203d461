"""Command-line surface: build artifacts, count weight slices, run
verification suites.

Exit codes: 0 success, 1 verification failure (or --check mismatch),
2 invalid input, 3 internal invariant violation.
"""

import csv
import functools
import io
import itertools
import json
import os
import random
import sys
import time

import click

from . import arpresent, lieoracle, mutation
from .system import System, UnsupportedCone

FORMAT_VERSION = 1

SUITES = ("structural", "kostant", "weights", "mutation", "fpoly", "oracle",
          "all")


def _parse_type(type_):
    """Split --type D4 into ("D", 4); raises ValueError naming --type and
    its form on anything else."""
    letter, digits = type_[:1].upper(), type_[1:]
    if not (letter.isalpha() and digits.isdecimal()):
        raise ValueError("--type %r is not a letter and a rank (e.g. "
                         "--type D4)" % type_)
    return letter, int(digits)


def _parse_orient(orient):
    """Parse an orientation like '2>1,3>2,4>2' into arrow pairs; raises
    ValueError naming --orient and its form on anything else."""
    if not orient:
        return None
    try:
        arrows = [tuple(int(x) for x in part.split(">"))
                  for part in orient.split(",")]
        if all(len(a) == 2 for a in arrows):
            return arrows
    except ValueError:
        pass
    raise ValueError("--orient %r is not of the form i>j,... with integer "
                     "vertices i, j (e.g. 2>1,3>2,4>2)" % orient)


def _parse_weight(text, option):
    """Parse a weight like '1,0,2'; raises ValueError naming option and its
    form on anything else."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("%s weight %r is not of the form n,n,... with "
                         "integer entries (e.g. 1,0,2)"
                         % (option, text)) from None


def _guard(fn):
    """Map exception classes onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, KeyError, OSError, NotImplementedError) as exc:
            click.echo("error: %s" % exc, err=True)
            sys.exit(2)
        except (AssertionError, RuntimeError) as exc:
            click.echo("internal error: %s" % exc, err=True)
            sys.exit(3)

    return wrapper


@click.group()
def main():
    """Ice quivers from Dynkin types, their cones, and exact counting."""


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _write_build_artifacts(system, variant, outdir):
    iq = system.ice(variant)
    Q = system.quiver
    files = {
        "quiver.json": json.dumps({"format": FORMAT_VERSION,
                                   **Q.to_json_dict()}, indent=1),
        "quiver.dot": Q.to_dot(),
        "icequiver.json": json.dumps({"format": FORMAT_VERSION,
                                      **iq.to_json_dict()}, indent=1),
        "icequiver.dot": iq.to_dot(),
    }
    summary = {"format": FORMAT_VERSION, "type": system.letter,
               "rank": system.rank,
               "orientation": [list(a) for a in Q.arrows],
               "variant": variant, "vertices": len(iq.vertices)}
    try:
        spec = system.cone(variant)
    except UnsupportedCone as exc:
        summary["cone"] = {"supported": False, "reason": str(exc)}
    else:
        sig = system.sigma(variant)
        files["hmatrix.json"] = json.dumps({"format": FORMAT_VERSION,
                                            **spec.to_json_dict()}, indent=1)
        files["hmatrix.csv"] = spec.to_csv()
        if sig is None:
            summary["sigma"] = {"written": False,
                                "reason": "variant %s has no grading"
                                          % variant}
        else:
            files["sigma.json"] = json.dumps(
                {"format": FORMAT_VERSION,
                 "rows": {v.label: list(r)
                          for v, r in zip(spec.vertices, sig)}},
                indent=1)
        summary["cone"] = {"supported": True, "columns": len(spec.columns)}
    files["summary.json"] = json.dumps(summary, indent=1)
    os.makedirs(outdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)
    return summary


@main.command()
@click.option("--type", "type_", required=True, help="Dynkin type, e.g. D4.")
@click.option("--orient", default=None,
              help="Arrow list like '2>1,3>2,4>2'; default orientation "
                   "if omitted.")
@click.option("--variant", default="full2",
              type=click.Choice(sorted(arpresent.VARIANTS)))
@click.option("--out", type=click.Path(), default=".")
@_guard
def build(type_, orient, variant, out):
    """Write quiver, ice quiver, H matrix and weight configuration files."""
    system = System(*_parse_type(type_), _parse_orient(orient))
    click.echo(json.dumps(_write_build_artifacts(system, variant, out),
                          indent=1))


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _decomposition(cd, mu, nu, decompositions):
    """The Brauer-Klimyk decomposition of mu (x) nu, kept in decompositions
    so that each pair is decomposed once."""
    if (mu, nu) not in decompositions:
        decompositions[mu, nu] = lieoracle.tensor_decomposition(cd, mu, nu)
    return decompositions[mu, nu]


def _grid_targets(cd, variant, sig, bound, rng, decompositions):
    """Targets (as tuples of weights) for a --grid run."""
    n = len(cd.cartan)
    doms = list(itertools.product(range(bound + 1), repeat=n))
    rows = []
    if variant == "full2":
        for mu in doms:
            for nu in doms:
                for lam in _decomposition(cd, mu, nu, decompositions):
                    rows.append((mu, nu, lam))
                rows.append((mu, nu,
                             tuple(rng.randrange(2 * bound + 2)
                                   for _ in range(n))))
    elif variant == "sharp":
        for mu in doms:
            for lam in sorted(lieoracle.freudenthal(cd, mu)):
                rows.append((mu, lam))
    else:  # u: every sum of h_v * sigma_v with 0 <= h_v <= bound
        gammas = {(0,) * n}
        for row in sig:
            gammas = {tuple(g + k * x for g, x in zip(gamma, row))
                      for gamma in gammas for k in range(bound + 1)}
        rows.extend((gamma,) for gamma in sorted(gammas))
    return rows


def _oracle_value(cd, variant, weights, decompositions):
    if variant == "full2":
        if any(x < 0 for w in weights for x in w):
            raise ValueError("all three weights must be dominant")
        mu, nu, lam = weights
        return _decomposition(cd, mu, nu, decompositions).get(lam, 0)
    if variant == "sharp":
        mu, lam = weights
        return lieoracle.freudenthal(cd, mu).get(lam, 0)
    return lieoracle.kostant_partition(cd, weights[0])


@main.command("count")
@click.option("--type", "type_", required=True)
@click.option("--orient", default=None)
@click.option("--variant", default="full2",
              type=click.Choice(["full2", "sharp", "u"]))
@click.option("--triple", nargs=3, multiple=True,
              help="mu nu lambda, each comma-separated (full2 only).")
@click.option("--target", "targets_opt", multiple=True,
              help="Weights joined by '/', e.g. '1,1/0,0' (sharp/u).")
@click.option("--grid", type=click.IntRange(min=0), default=None,
              help="Sweep dominant weights with entries up to the bound.")
@click.option("--check", is_flag=True, default=False,
              help="Add oracle and match columns; exit 1 on any mismatch.")
@click.option("--out", type=click.Path(), default=None,
              help="Write the CSV here instead of stdout.")
@_guard
def cmd_count(type_, orient, variant, triple, targets_opt, grid, check, out):
    """Count lattice points of weight slices; CSV output."""
    letter, rank = _parse_type(type_)
    system = System(letter, rank, _parse_orient(orient))
    sig = system.sigma(variant)
    cd = system.cd
    rows = []
    decompositions = {}
    for t in triple:
        if variant != "full2":
            raise ValueError("--triple applies to the full2 variant")
        rows.append(tuple(_parse_weight(x, "--triple") for x in t))
    for t in targets_opt:
        rows.append(tuple(_parse_weight(x, "--target")
                          for x in t.split("/")))
    if grid is not None:
        rows.extend(_grid_targets(cd, variant, sig, grid, random.Random(0),
                                  decompositions))
    if not rows:
        raise ValueError("nothing to count: give --triple, --target "
                         "or --grid")
    nweights = {"full2": 3, "sharp": 2, "u": 1}[variant]
    for weights in rows:
        if len(weights) != nweights or \
                any(len(w) != rank for w in weights):
            raise ValueError("bad target %r for variant %s"
                             % (weights, variant))
    fam = system.family(variant)
    targets = [tuple(x for w in weights for x in w) for weights in rows]
    counts = [fam.count(t) for t in targets]
    header = {"full2": ["mu", "nu", "lambda"], "sharp": ["mu", "lambda"],
              "u": ["gamma"]}[variant] + ["count"]
    if check:
        header += ["oracle", "match"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    mismatch = False
    for weights, c in zip(rows, counts):
        line = [" ".join(str(x) for x in w) for w in weights] + [c]
        if check:
            oracle = _oracle_value(cd, variant, weights, decompositions)
            ok = c == oracle
            mismatch = mismatch or not ok
            line += [oracle, "yes" if ok else "NO"]
        writer.writerow(line)
    text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    if mismatch:
        sys.exit(1)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_structural(system, _bound):
    """Every slice is a polytope: its recession cone, the slice at target
    0, holds the constants only.  So each graded variant's family must
    build (init certifies every slice bounded) and count 1 at target 0.
    The number of full2 columns is reported, not judged."""
    zero_counts = {}
    for variant in ("full2", "sharp", "u"):
        fam = system.family(variant)
        zero_counts[variant] = fam.count([0] * fam.width)
    return {"passed": all(c == 1 for c in zero_counts.values()),
            "zero_counts": zero_counts,
            "columns": len(system.cone().columns)}


def _suite_grid(system, variant, bound):
    """The targets and oracle of `count --variant V --grid B --check`."""
    cd = system.cd
    decompositions = {}
    rows = _grid_targets(cd, variant, system.sigma(variant), bound,
                         random.Random(0), decompositions)
    fam = system.family(variant)
    bad = [[list(w) for w in weights] for weights in rows
           if fam.count([x for w in weights for x in w])
           != _oracle_value(cd, variant, weights, decompositions)]
    return {"passed": not bad, "targets": len(rows), "mismatches": bad}


def _suite_kostant(system, bound):
    return _suite_grid(system, "u", bound)


def _suite_weights(system, bound):
    if system.rank > 2:
        bound = min(bound, 1)
    return _suite_grid(system, "sharp", bound)


def _suite_mutation(system, _bound):
    report = mutation.verify_cyclic(system.ice())
    return {"passed": report["all"], **report}


def _suite_fpoly(system, _bound):
    brute = system.tv_bruteforce
    sets = system.tv_sets
    bad = sorted(v.label for v in brute.keys() | sets.keys()
                 if brute.get(v) != sets.get(v))
    return {"passed": not bad, "mismatches": bad,
            "counts": {v.label: len(s) for v, s in sorted(
                sets.items(), key=lambda kv: kv[0].label)}}


def _suite_oracle(system, bound):
    letter, rank, cd = system.letter, system.rank, system.cd
    if rank > 2:
        bound = min(bound, 1)
    doms = list(itertools.product(range(bound + 1), repeat=rank))
    bad, total = [], 0
    for mu in doms:
        for nu in doms:
            dec = lieoracle.tensor_decomposition(cd, mu, nu)
            total += 1
            dim = sum(m * lieoracle.weyl_dimension(cd, lam)
                      for lam, m in dec.items())
            if dim != lieoracle.weyl_dimension(cd, mu) * \
                    lieoracle.weyl_dimension(cd, nu):
                bad.append(["dim", list(mu), list(nu)])
            if letter == "A":
                for lam, m in dec.items():
                    if lieoracle.lr_from_weights(rank, mu, nu, lam) != m:
                        bad.append(["lr", list(mu), list(nu), list(lam)])
    return {"passed": not bad, "pairs": total, "mismatches": bad}


_SUITE_FUNCS = {
    "structural": _suite_structural,
    "kostant": _suite_kostant,
    "weights": _suite_weights,
    "mutation": _suite_mutation,
    "fpoly": _suite_fpoly,
    "oracle": _suite_oracle,
}


@main.command()
@click.argument("suite", type=click.Choice(SUITES))
@click.option("--type", "type_", required=True)
@click.option("--orient", default=None)
@click.option("--max", "bound", type=click.IntRange(min=0), default=2,
              help="Grid bound for the kostant/weights/oracle suites.")
@click.option("--out", type=click.Path(), default=None,
              help="Write the JSON report here.")
@_guard
def verify(suite, type_, orient, bound, out):
    """Run a verification suite; exit 0 iff every check passes."""
    letter, rank = _parse_type(type_)
    system = System(letter, rank, _parse_orient(orient))
    names = list(_SUITE_FUNCS) if suite == "all" else [suite]
    report = {"format": FORMAT_VERSION, "type": "%s%d" % (letter, rank),
              "suites": {}}
    for name in names:
        start = time.perf_counter()
        result = _SUITE_FUNCS[name](system, bound)
        result["seconds"] = time.perf_counter() - start
        report["suites"][name] = result
        click.echo("%-12s %s" % (name, "pass" if result["passed"]
                                 else "FAIL"))
    report["passed"] = all(r["passed"] for r in report["suites"].values())
    if out:
        with open(out, "w") as fh:
            fh.write(json.dumps(report, indent=1))
    if not report["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
