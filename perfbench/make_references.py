"""Regenerate perfbench/references.json, the stored expected outputs.

    python3 perfbench/make_references.py    # about 2 minutes

System references (T_v subrep counts and hashes, H column counts and
hashes, columns kept by prune) are recorded from the current code and are
only written when the F-polynomial T_v sets equal the GF(2)/GF(3) brute
force wherever it applies and the column counts match the published ones.
Deep D5 values come from the Brauer-Klimyk oracle, independently of the
cone.  Rerun only when an output is meant to change, and say why in the
commit.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from arcones import cone, lieoracle  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (Run, build, cartan, h_digest,  # noqa: E402
                       tv_digest)

# key -> (stage, pruned, brute force applies)
SYSTEMS = {
    "A2": ("family", True, True),
    "A3": ("family", True, True),
    "A4": ("family", True, True),
    "A5": ("family", True, True),
    "A6": ("family", True, True),
    "D4": ("family", True, True),
    "D4:2>1,3>2,4>2": ("family", True, True),
    "D5": ("cone", False, False),
    "D6": ("tv", False, False),
}
# column counts stated in the README (D4) and the ROADMAP baseline (D5)
PUBLISHED_COLUMNS = {"D4": 64, "D4:2>1,3>2,4>2": 44, "D5": 192}
PUBLISHED_KEPT = {"D4:2>1,3>2,4>2": 44}

RHO = [1, 1, 1, 1, 1]
# lambdas of rho (x) rho for D5 counted on every deep-d5 run; each count
# took 1.3-1.8 s when chosen.  lambda = rho (c = 560) alone takes 20 s and
# is left out for run length.
DEEP = [[0, 0, 0, 0, 0], [6, 0, 0, 4, 0]]


def system_refs():
    run = Run(Tracer(False), random.Random(0), 1)
    out, d5 = {}, None
    for key, (upto, prune, bruteforce) in SYSTEMS.items():
        s = build(run, key, upto=upto, prune=prune)
        ref = {"subreps": sum(len(x) for x in s.sets.values()),
               "tv_sha256": tv_digest(s.sets)}
        if s.spec is not None:
            ref["columns"] = len(s.spec.columns)
            ref["h_sha256"] = h_digest(s.spec)
        if s.pruned is not None:
            ref["columns_kept"] = len(s.pruned.columns)
        if bruteforce and cone.tv_strict_sets(s.iq, "bruteforce") != s.sets:
            sys.exit("%s: F-polynomial and brute-force T_v sets differ" % key)
        published = PUBLISHED_COLUMNS.get(key, ref.get("columns"))
        if ref.get("columns") != published:
            sys.exit("%s: %d columns, published %d"
                     % (key, ref["columns"], PUBLISHED_COLUMNS[key]))
        if ref.get("columns_kept") != PUBLISHED_KEPT.get(
                key, ref.get("columns_kept")):
            sys.exit("%s: prune keeps %d columns, published %d"
                     % (key, ref["columns_kept"], PUBLISHED_KEPT[key]))
        out[key] = ref
        if key == "D5":
            d5 = s
        print(key, ref, file=sys.stderr)
    return out, d5


def main():
    systems, d5 = system_refs()
    dec = lieoracle.tensor_decomposition(cartan(d5), RHO, RHO)
    refs = {
        "provenance": {
            "systems": "Recorded by make_references.py from the arcones "
                       "sources. Written only because F-polynomial T_v "
                       "sets equal the GF(2)/GF(3) brute force for A2-A6 "
                       "and both D4 orientations, and H has the published "
                       "64 (D4), 44 (D4 2>1,3>2,4>2, 44 kept by prune) and "
                       "192 (D5) columns.",
            "deep-d5": "c^lambda_{rho,rho} for D5 from the Brauer-Klimyk "
                       "oracle lieoracle.tensor_decomposition(D5, rho, rho) "
                       "(78 s on a 2-core x86_64 container, Python 3.11); "
                       "rho (x) rho has 497 components and c^rho_{rho,rho} "
                       "= 560.",
        },
        "systems": systems,
        "deep-d5": [[RHO, RHO, lam, dec[tuple(lam)]] for lam in DEEP],
    }
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
