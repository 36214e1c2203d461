"""One Dynkin quiver and every object the pipeline builds from it.

A System is the single place where a (type, orientation) pair is built:
quiver -> AR quiver -> presentation catalog -> ice quivers -> T_v
subrepresentation sets -> per-variant cone H, weight configuration sigma and
SliceFamily.  Each stage is built on first use and kept in a field declared
on the class, so later stages and repeated calls reuse it.
"""

from dataclasses import dataclass, field
from functools import cached_property

from . import arpresent, count, rootdata
from .cone import assemble_cone, tv_strict_sets


class UnsupportedCone(NotImplementedError):
    """Raised by System.cone for a type whose cones are not built."""


def _memo(table, variant, make):
    if variant not in table:
        table[variant] = make()
    return table[variant]


@dataclass(eq=False)
class System:
    """The pipeline of the Dynkin quiver of type letter+rank.

    orient is a list of arrows (i, j), meaning i -> j, or None for the
    default orientation.  Per-variant stages take the variant name ("full2",
    "u", "sharp", "l", "r"); the cone of a variant is read off that
    variant's ice quiver and the T_v sets of the full2 ice quiver.

    The T_v sets come from F-polynomial mutation.  The GF(2)/GF(3) brute
    force (tv_bruteforce) is the independent check on them; no other stage
    builds a pathalg.PathAlg.

    Cones are built for trivially valued types only: cone, and so family
    and every command that counts, raises UnsupportedCone on a valued
    type.
    """

    letter: str
    rank: int
    orient: list = None
    _ice: dict = field(default_factory=dict, init=False, repr=False)
    _cone: dict = field(default_factory=dict, init=False, repr=False)
    _sigma: dict = field(default_factory=dict, init=False, repr=False)
    _family: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def quiver(self):
        return rootdata.build_dynkin(self.letter, self.rank, self.orient)

    @cached_property
    def ar(self):
        return arpresent.knit_rep_ar(self.quiver)

    @property
    def cd(self):
        """Cartan data of the quiver (computed while knitting)."""
        return self.ar.cd

    @cached_property
    def catalog(self):
        return arpresent.enumerate_presentations(self.ar)

    def ice(self, variant="full2"):
        return _memo(self._ice, variant,
                     lambda: arpresent.build_ice_quiver(self.catalog,
                                                        variant))

    @cached_property
    def tv_bruteforce(self):
        """The T_v sets by the GF(2)/GF(3) brute force, the check on
        tv_sets; raises NotImplementedError where the brute force refuses
        the input."""
        return tv_strict_sets(self.ice(), "bruteforce")

    @cached_property
    def tv_sets(self):
        """Strict subrep dimension vectors of every T_v of the full2 ice
        quiver, by F-polynomial mutation."""
        return tv_strict_sets(self.ice(), "fpoly")

    def cone(self, variant="full2"):
        if not self.quiver.trivially_valued:
            raise UnsupportedCone("valued type: quiver and catalog only")
        return _memo(self._cone, variant,
                     lambda: assemble_cone(self.ice(variant),
                                           strict_sets=self.tv_sets))

    def sigma(self, variant="full2"):
        """The weight configuration of variant as a list of rows, one per
        vertex, or None for the ungraded variants l and r."""
        return _memo(self._sigma, variant,
                     lambda: arpresent.weight_configuration(
                         self.ice(variant)))

    def family(self, variant="full2"):
        return _memo(self._family, variant,
                     lambda: count.SliceFamily(self.cone(variant),
                                               self.sigma(variant)))
