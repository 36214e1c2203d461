"""The benchmark's workloads and the checks that prove their outputs.

Every workload drives the ``arcones`` library in-process the way a CLI user
pays for it: build a (type, orientation) system once, from
``rootdata.build_dynkin`` through ``SliceFamily`` init, then count slices.
T_v subrepresentation sets come from the GF(2)/GF(3) brute force on grid-d4,
the CLI's default route, and from F-polynomial mutation, the route that works
from D5 on, everywhere else; there brute force runs only as an independent
check.

The work of a run is fixed by ``--seed`` and ``--seconds`` alone, never by how
fast the code is, so two commits measured with the same arguments do the
same work.  The seed orders the targets and the build plan, and on grid-d4
draws one random lambda per pair; the target families are fixed, so every
seed does the same work, bar those random lambdas, and the exact counters
repeat across seeds.
"""

import hashlib
import itertools
import json
import time
from dataclasses import dataclass

from arcones import arpresent, cone, count, lieoracle, mutation, rootdata


class Run:
    """What one workload run measured, as wall-clock (start, end) intervals
    for the clock to convert, and the tally of its checks."""

    def __init__(self, tracer, rng, seconds):
        self.tr = tracer
        self.rng = rng
        # passes over each workload's fixed targets, one per 10 s
        self.rounds = max(1, round(seconds / 10))
        self.setups = []            # per set-up pass, its build intervals
        self.counts = []            # per count, (label, start, end)
        self.checks = []            # per independent check
        self.attempted = 0
        self.failures = []          # one line per wrong output
        self.sizes = {}             # layer size counters of the last pass

    @property
    def failed(self):
        return len(self.failures)

    def expect(self, what, got, want):
        self.attempted += 1
        if got != want:
            self.failures.append("%s: got %r, expected %r" % (what, got, want))

    def checking(self):
        """Context manager recording its interval as check time."""
        return _Interval(self.checks)


class _Interval:
    def __init__(self, into):
        self.into = into

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *_exc):
        self.into.append((self.t0, time.perf_counter()))


@dataclass
class System:
    key: str
    iq: object
    sets: dict
    source: str
    spec: object = None
    sigma: object = None
    family: object = None
    pruned: object = None


def parse_key(key):
    """'D4' or 'D4:2>1,3>2,4>2' -> (letter, rank, orientation or None)."""
    name, _, orient = key.partition(":")
    arrows = None
    if orient:
        arrows = [tuple(int(x) for x in a.split(">"))
                  for a in orient.split(",")]
    return name[0], int(name[1:]), arrows


def build(run, key, upto="family", prune=False, source="fpoly"):
    """Construct one system, one span per layer call.

    upto is "tv" (T_v sets only), "cone" (H and sigma) or "family"
    (SliceFamily init as well); prune adds cone.prune_redundant; source
    ("fpoly" or "bruteforce") is the route to the T_v sets.
    """
    tr = run.tr
    letter, rank, orient = parse_key(key)
    Q = rootdata.build_dynkin(letter, rank, orient)
    with tr.span("arpresent.knit"):
        ar = arpresent.knit_rep_ar(Q)
    with tr.span("arpresent.catalog"):
        cat = arpresent.enumerate_presentations(ar)
    with tr.span("arpresent.ice"):
        iq = arpresent.build_ice_quiver(cat)
    if source == "bruteforce":
        with tr.span("pathalg.bruteforce"):
            sets = cone.tv_strict_sets(iq, source="bruteforce")
    else:
        sets = {}
        for i in range(1, iq.n + 1):
            with tr.span("mutation.fpoly"):
                part = mutation.tv_subreps_via_fpoly(iq, i)
            for v, s in part.items():
                sets[v] = set(s)
    s = System(key, iq, sets, source)
    if upto == "tv":
        return s
    with tr.span("cone.assemble"):
        s.spec = cone.assemble_cone(iq, strict_sets=sets)
    with tr.span("arpresent.ice"):
        s.sigma = arpresent.weight_configuration(iq)
    if prune:
        with tr.span("cone.prune"):
            s.pruned = cone.prune_redundant(s.spec)
    if upto == "family":
        with tr.span("count.init"):
            s.family = count.SliceFamily(s.spec, s.sigma)
    return s


def timed_build(run, key, **kw):
    t0 = time.perf_counter()
    s = build(run, key, **kw)
    return s, (t0, time.perf_counter())


def h_digest(spec):
    """sha256 of the H matrix with its column order, groups and labels."""
    text = json.dumps(spec.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def tv_digest(sets):
    """sha256 of the T_v subrep sets keyed by frozen vertex label."""
    data = sorted([v.label, sorted(map(list, s))] for v, s in sets.items())
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def check_system(run, s, ref, bruteforce=False):
    """Compare a built system with its stored reference and, where brute
    force applies, its F-polynomial T_v sets with the GF(2)/GF(3) ones."""
    run.expect(s.key + " subreps", sum(len(x) for x in s.sets.values()),
               ref["subreps"])
    if "tv_sha256" in ref:
        run.expect(s.key + " T_v sha256", tv_digest(s.sets), ref["tv_sha256"])
    if s.spec is not None:
        run.expect(s.key + " columns", len(s.spec.columns), ref["columns"])
        run.expect(s.key + " H sha256", h_digest(s.spec), ref["h_sha256"])
    if s.pruned is not None:
        run.expect(s.key + " columns after prune", len(s.pruned.columns),
                   ref["columns_kept"])
    if bruteforce:
        with run.checking(), run.tr.span("pathalg.bruteforce"):
            bf = cone.tv_strict_sets(s.iq, source="bruteforce")
        run.expect(s.key + " fpoly == bruteforce", s.sets == bf, True)


def record_sizes(run, systems):
    """Exact size counters of one set-up pass, summed over its systems."""
    run.sizes = {
        "mutation.subreps": sum(len(x) for s in systems
                                if s.source == "fpoly"
                                for x in s.sets.values()),
        "cone.columns": sum(len(s.spec.columns) for s in systems if s.spec),
        "cone.columns_kept": sum(len(s.pruned.columns) for s in systems
                                 if s.pruned),
        "count.m": sum(s.family.m for s in systems if s.family),
        "count.active_rows": sum(len(s.family.active) for s in systems
                                 if s.family),
    }


def decompose(run, cd, mu, nu):
    """Brauer-Klimyk decomposition of L(mu) (x) L(nu), timed as a check."""
    with run.checking(), run.tr.span("lieoracle.decomp"):
        return lieoracle.tensor_decomposition(cd, mu, nu)


def pair_targets(run, cd, pairs, lam_max=None):
    """Full2 targets of a fixed list of pairs (mu, nu), in seeded order.

    Each pair contributes every lambda of the oracle's decomposition of
    mu (x) nu and, given lam_max, one seeded random lambda with entries up
    to lam_max, whose expected count is 0 unless it lies in the
    decomposition.  The pairs are fixed, so the exact counters do not
    depend on the seed.
    """
    rank = len(cd.cartan)
    pairs = list(pairs)
    run.rng.shuffle(pairs)
    out = []
    for mu, nu in pairs:
        dec = decompose(run, cd, mu, nu)
        lams = sorted(dec)
        if lam_max is not None:
            lams.append(tuple(run.rng.randrange(lam_max + 1)
                              for _ in range(rank)))
        out.extend(("c^%s_%s,%s" % (lam, mu, nu), mu + nu + lam,
                    dec.get(lam, 0)) for lam in lams)
    return out


def count_targets(run, family, targets):
    """Count each (label, target, expected) and check the value."""
    for label, target, want in targets:
        t0 = time.perf_counter()
        try:
            with run.tr.span("count.count"):
                got = family.count(target)
        except Exception as exc:  # a failed count is a wrong output
            got = "%s: %s" % (type(exc).__name__, exc)
        run.counts.append((label, t0, time.perf_counter()))
        run.expect(label, got, want)


def set_up(run, key, refs, setups, source="fpoly"):
    """Build one system through SliceFamily init `setups` times, checking
    each build; returns the last."""
    for _ in range(setups):
        s, took = timed_build(run, key, source=source)
        run.setups.append([took])
        check_system(run, s, refs[key])
    record_sizes(run, [s])
    return s


def cartan(s):
    return rootdata.cartan_data(s.iq.cat.ar.Q)


def fundamental_pairs(rank):
    """Every ordered pair of weights from {0, omega_1, ..., omega_rank}."""
    weights = [tuple(int(j == i) for j in range(rank))
               for i in range(-1, rank)]
    return list(itertools.product(weights, weights))


@dataclass(frozen=True)
class Grid:
    """Many shallow full2 targets on one small system, checked by the
    Brauer-Klimyk oracle: per-target overhead and the oracle dominate.
    The system is built as the CLI builds it, with brute-force T_v sets, so
    mutation is not on this workload's path."""

    system: str
    refs: dict                  # system key -> stored reference
    box: int = 1                # mu <= nu range over {0..box}^rank
    setups: int = 5

    def run(self, run):
        s = set_up(run, self.system, self.refs, self.setups,
                   source="bruteforce")
        doms = itertools.product(range(self.box + 1), repeat=s.iq.n)
        # the pairs of even total weight: half the grid, for run length
        pairs = [(mu, nu) for mu, nu in
                 itertools.combinations_with_replacement(doms, 2)
                 if (sum(mu) + sum(nu)) % 2 == 0]
        for _ in range(run.rounds):
            targets = pair_targets(run, cartan(s), pairs, 2 * self.box + 1)
            count_targets(run, s.family, targets)


@dataclass(frozen=True)
class Deep:
    """A few deep targets, about half of count time, plus shallow ones for
    the latency percentiles.  Deep expected values are stored references."""

    system: str
    refs: dict
    deep: tuple                 # (mu, nu, lam, expected), stored references
    setups: int = 3

    def run(self, run):
        s = set_up(run, self.system, self.refs, self.setups)
        pairs = fundamental_pairs(s.iq.n)
        for _ in range(run.rounds):
            targets = [("c^%s_%s,%s (stored)" % (lam, mu, nu),
                        tuple(mu) + tuple(nu) + tuple(lam), want)
                       for mu, nu, lam, want in self.deep]
            targets += pair_targets(run, cartan(s), pairs)
            run.rng.shuffle(targets)
            count_targets(run, s.family, targets)


# set-up passes of build-mix, each building every system
BUILD_MIX_SETUPS = 2
# times build-mix counts each shallow target; a target's latency is the
# median of its counts, which keeps build-mix's percentiles of targets that
# take about 3 ms each steady on a noisy host
BUILD_MIX_COUNT_ROUNDS = 20


@dataclass(frozen=True)
class BuildMix:
    """Construction across types and orientations, checked by stored
    hashes and by brute force where it applies; shallow counts on one built
    family give the latency figures."""

    refs: dict
    families: tuple             # built through SliceFamily, brute force check
    pruned: tuple               # families that prune_redundant also runs on
    counted: str                # the family whose shallow targets are counted
    cones: tuple = ()           # built through H only
    tv_only: tuple = ()         # T_v sets only

    def run(self, run):
        plan = ([(k, "family") for k in self.families] +
                [(k, "cone") for k in self.cones] +
                [(k, "tv") for k in self.tv_only])
        for _ in range(BUILD_MIX_SETUPS):
            run.rng.shuffle(plan)
            systems, took = [], []
            for key, upto in plan:
                s, interval = timed_build(run, key, upto=upto,
                                          prune=key in self.pruned)
                took.append(interval)
                systems.append(s)
                check_system(run, s, self.refs[key],
                             bruteforce=upto == "family")
            run.setups.append(took)
        record_sizes(run, systems)
        s = next(s for s in systems if s.key == self.counted)
        for _ in range(run.rounds):
            targets = pair_targets(run, cartan(s), fundamental_pairs(s.iq.n))
            for _ in range(BUILD_MIX_COUNT_ROUNDS):
                count_targets(run, s.family, targets)


# the orientation whose cone has the minimal 44 inequalities
D4_MINIMAL = "D4:2>1,3>2,4>2"


def workloads(refs):
    """The named workloads, with their stored references."""
    systems = refs["systems"]

    def weights(rows):
        return tuple(tuple(tuple(w) for w in r[:3]) + (r[3],) for r in rows)

    return {
        "grid-d4": Grid("D4", systems),
        "deep-d5": Deep("D5", systems, weights(refs["deep-d5"])),
        "build-mix": BuildMix(
            systems,
            families=("A2", "A3", "A4", "A5", "A6", "D4", D4_MINIMAL),
            # prune on A5 (1 s), A6 (4 s), D4 (2 s) and D5 (36 s) is left
            # out for run length
            pruned=("A2", "A3", "A4", D4_MINIMAL), counted=D4_MINIMAL,
            cones=("D5",), tv_only=("D6",)),
    }
