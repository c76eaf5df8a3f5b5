"""Built-in catalog of symmetric benchmark frameworks.

Every entry records a framework (or, for ``gridshell``, just a symmetry
census), the point group it should be analysed under, and the values the
analysis is expected to produce: the census counts, the per-irrep
decomposition of mechanisms minus self-stresses, and — where geometry is
available — the actual numbers of self-stresses and mechanisms together
with their symmetry types.  The expectations double as regression data for
the test suite and as reference output for the command line tools.

Coordinates are chosen as exact binary fractions so that the geometric
degeneracies the entries rely on (concurrent bar lines, parallel rungs,
collinear construction points) hold exactly in double precision, making
rank decisions unambiguous at the default tolerances.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, Mapping

import numpy as np

from .errors import UnknownEntry
from .framework import Framework, affine_map
from .symmetry import GroupSpec, SymmetryCensus, make_census

__all__ = [
    "CatalogEntry",
    "SubgroupExpectation",
    "names",
    "generate",
    "all_entries",
    "affine_map",
]


# ---------------------------------------------------------------------------
# Entry record
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SubgroupExpectation:
    """Expected decomposition when an entry is analysed under a subgroup.

    Geometric entries carry the subgroup as a :class:`GroupSpec`; the
    census-only entry carries a ready-made census instead.
    """

    decomposition: Mapping[str, int]
    group: GroupSpec | None = None
    census: SymmetryCensus | None = None
    note: str = ""


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    """A benchmark framework with its expected analysis results.

    ``expected_s`` / ``expected_m`` are the actual dimensions of the
    self-stress and mechanism spaces at the catalog coordinates; the
    ``*_by_irrep`` mappings give their symmetry types (dimension counts per
    irrep label).  ``expected_rank`` is the rank of the rigidity matrix.
    Fields are ``None`` where no geometry is available.
    """

    name: str
    description: str
    group: GroupSpec | None
    framework: Framework | None
    census: SymmetryCensus | None
    expected_census: Mapping[str, object]
    expected_decomposition: Mapping[str, int]
    expected_s: int | None = None
    expected_m: int | None = None
    expected_s_by_irrep: Mapping[str, int] | None = None
    expected_m_by_irrep: Mapping[str, int] | None = None
    expected_rank: int | None = None
    subgroups: tuple[SubgroupExpectation, ...] = ()
    tags: tuple[str, ...] = ()

    @property
    def is_census_only(self) -> bool:
        return self.framework is None


def _build(
    nodes: Mapping[str, tuple[float, float]],
    edges: list[tuple[str, str]],
    pinned: tuple[str, ...] = (),
) -> Framework:
    """Assemble a framework from named joints, indexing in insertion order."""
    index = {name: i for i, name in enumerate(nodes)}
    positions = np.array(list(nodes.values()), dtype=float)
    edge_list = tuple((index[a], index[b]) for a, b in edges)
    return Framework(positions, edge_list, frozenset(index[p] for p in pinned))


_CS_V = GroupSpec("Cs", 1, mirror_angle_deg=90.0)  # mirror line is vertical
_C2 = GroupSpec("Cn", 2)
_C2V = GroupSpec("Cnv", 2, mirror_angle_deg=0.0)
_C4V = GroupSpec("Cnv", 4, mirror_angle_deg=0.0)


# ---------------------------------------------------------------------------
# Hand-laid-out figures
# ---------------------------------------------------------------------------

_FIG2A_NODES = {
    "p1": (0.0, 0.0), "p2": (-1.0, -1.0), "p3": (-2.0, -1.0), "p4": (1.0, -1.0),
    "p5": (2.0, -1.0), "p6": (0.0, -1.5), "p7": (0.0, -2.5),
}
_FIG2A_EDGES = [
    ("p1", "p2"), ("p1", "p3"), ("p1", "p4"), ("p1", "p5"), ("p2", "p3"),
    ("p4", "p5"), ("p3", "p7"), ("p5", "p7"), ("p2", "p6"), ("p4", "p6"),
    ("p6", "p7"),
]

_FIG2B_NODES = {
    "p1": (-0.5, -0.5), "p2": (0.5, -0.5), "p3": (-0.5, -1.5), "p4": (0.5, -1.5),
    "p11": (-1.0, 0.0), "p22": (1.0, 0.0), "p33": (-1.5, -2.5), "p44": (1.5, -2.5),
}
_FIG2B_EDGES = [
    ("p1", "p2"), ("p1", "p3"), ("p2", "p4"), ("p3", "p4"), ("p11", "p22"),
    ("p11", "p33"), ("p22", "p44"), ("p33", "p44"), ("p1", "p11"), ("p2", "p22"),
    ("p3", "p33"), ("p4", "p44"),
]

_FIG2C_NODES = {
    "p1": (-1.5, 0.0), "p2": (1.5, 0.0), "p3": (-1.5, -2.5), "p4": (1.5, -2.5),
    "p5": (-0.8, -0.9), "p6": (0.8, -1.6),
}
_FIG2C_EDGES = [
    ("p1", "p5"), ("p5", "p3"), ("p3", "p1"), ("p2", "p4"), ("p4", "p6"),
    ("p6", "p2"), ("p1", "p2"), ("p3", "p4"), ("p6", "p5"),
]

# Triangle-in-triangle with one connector lying in the mirror.  The mirror
# forces the three connector lines through a single point, so the prism is
# stressed at *every* mirror-symmetric placement of this combinatorics.
_FIG3_NODES = {
    "p1": (-1.0, 0.0), "p2": (1.0, 0.0), "p3": (0.0, 1.25),
    "p11": (-3.0, -0.75), "p22": (3.0, -0.75), "p33": (0.0, 3.25),
}
_FIG3_EDGES = [
    ("p1", "p2"), ("p1", "p3"), ("p3", "p2"), ("p11", "p22"), ("p11", "p33"),
    ("p33", "p22"), ("p1", "p11"), ("p2", "p22"), ("p3", "p33"),
]

# The inner-square heights are deliberately asymmetric about y = 0 (0.45 on
# top, -0.55 below): with equal heights the diagonals p10-p1-p13 and
# p11-p1-p12 become collinear, a special position that adds an extra
# equisymmetric stress/mechanism pair.  The offsets keep the realization
# generic while preserving the vertical mirror.
_FIG4A_NODES = {
    "p1": (0.0, 0.0), "p2": (0.0, 1.0), "p3": (0.0, -1.0), "p4": (-1.0, 0.0),
    "p5": (1.0, 0.0), "p6": (-1.0, 0.8), "p7": (1.0, 0.8), "p8": (-1.2, -1.1),
    "p9": (1.2, -1.1), "p10": (-0.5, 0.45), "p11": (0.5, 0.45), "p12": (-0.5, -0.55),
    "p13": (0.5, -0.55),
}
_FIG4A_EDGES = [
    ("p6", "p2"), ("p2", "p7"), ("p6", "p10"), ("p2", "p10"), ("p11", "p2"),
    ("p11", "p7"), ("p6", "p4"), ("p5", "p7"), ("p10", "p1"), ("p1", "p11"),
    ("p4", "p10"), ("p11", "p5"), ("p12", "p1"), ("p13", "p1"), ("p4", "p12"),
    ("p13", "p5"), ("p4", "p8"), ("p5", "p9"), ("p8", "p12"), ("p9", "p13"),
    ("p12", "p3"), ("p13", "p3"), ("p3", "p8"), ("p3", "p9"),
]

_FIG4B_NODES = {
    "p1": (0.0, 0.0), "p2": (0.0, 0.8), "p3": (0.0, 1.2), "p4": (0.0, -0.5),
    "p5": (0.0, -1.2), "p6": (-0.6, 0.8), "p7": (0.6, 0.8), "p8": (-0.9, 0.0),
    "p9": (0.9, 0.0), "p10": (-0.8, -0.5), "p11": (0.8, -0.5), "p12": (-1.6, 0.2),
    "p13": (1.6, 0.2),
}
_FIG4B_EDGES = [
    ("p1", "p2"), ("p2", "p3"), ("p1", "p4"), ("p4", "p5"), ("p1", "p8"),
    ("p1", "p9"), ("p6", "p2"), ("p2", "p7"), ("p4", "p10"), ("p4", "p11"),
    ("p3", "p6"), ("p7", "p3"), ("p6", "p8"), ("p8", "p10"), ("p5", "p10"),
    ("p5", "p11"), ("p9", "p7"), ("p9", "p11"), ("p12", "p10"), ("p12", "p8"),
    ("p12", "p6"), ("p13", "p9"), ("p13", "p11"), ("p13", "p7"),
]

_FIG4C_NODES = {
    "p1": (-0.4, 0.5), "p2": (0.4, 0.5), "p3": (-0.7, -0.5), "p4": (0.7, -0.5),
    "p5": (-0.8, 1.0), "p6": (0.8, 1.0), "p7": (-0.8, -1.0), "p8": (0.8, -1.0),
    "p9": (-1.5, 0.8), "p10": (1.5, 0.8), "p11": (-1.5, -0.8), "p12": (1.5, -0.8),
}
_FIG4C_EDGES = [
    ("p1", "p2"), ("p2", "p4"), ("p4", "p3"), ("p3", "p1"), ("p1", "p5"),
    ("p1", "p9"), ("p2", "p6"), ("p2", "p10"), ("p3", "p11"), ("p3", "p7"),
    ("p4", "p8"), ("p4", "p12"), ("p5", "p6"), ("p6", "p10"), ("p12", "p8"),
    ("p12", "p10"), ("p8", "p7"), ("p7", "p11"), ("p11", "p9"), ("p9", "p5"),
]

_FIG6A_NODES = {
    "p1": (-0.4, 0.0), "p1r": (0.4, 0.0), "p2": (-0.4, 0.8), "p2r": (0.4, 0.8),
    "p3": (-0.4, -0.8), "p3r": (0.4, -0.8), "p4": (0.0, 1.3), "p5": (0.0, -1.3),
    "p6": (-1.2, 0.8), "p6r": (1.2, 0.8), "p7": (-1.2, 0.0), "p7r": (1.2, 0.0),
    "p8": (-1.2, -0.8), "p8r": (1.2, -0.8), "p9": (-1.7, 0.0), "p9r": (1.7, 0.0),
}
_FIG6A_EDGES = [
    ("p1", "p2"), ("p1", "p3"), ("p1", "p7"), ("p4", "p2"), ("p6", "p2"),
    ("p3", "p5"), ("p3", "p8"), ("p5", "p8"), ("p8", "p7"), ("p7", "p6"),
    ("p4", "p6"), ("p7", "p9"), ("p6", "p9"), ("p8", "p9"), ("p1r", "p2r"),
    ("p1r", "p3r"), ("p1r", "p7r"), ("p4", "p2r"), ("p6r", "p2r"), ("p3r", "p5"),
    ("p3r", "p8r"), ("p5", "p8r"), ("p8r", "p7r"), ("p7r", "p6r"), ("p4", "p6r"),
    ("p7r", "p9r"), ("p6r", "p9r"), ("p8r", "p9r"), ("p2r", "p2"), ("p1r", "p1"),
    ("p3r", "p3"),
]

_FIG6B_NODES = {
    "p1": (0.0, 0.3), "p2": (0.0, -0.3), "p3": (-0.5, 0.8), "p4": (0.5, 0.8),
    "p5": (-0.5, 1.3), "p6": (0.5, 1.3), "p7": (-0.5, -0.8), "p8": (0.5, -0.8),
    "p9": (-0.5, -1.3), "p10": (0.5, -1.3), "p11": (-1.0, 0.3), "p12": (-1.0, -0.3),
    "p15": (-1.5, 1.0), "p16": (-1.5, -1.0), "p11r": (1.0, 0.3), "p12r": (1.0, -0.3),
    "p15r": (1.5, 1.0), "p16r": (1.5, -1.0),
}
_FIG6B_EDGES = [
    ("p1", "p2"), ("p1", "p4"), ("p1", "p3"), ("p7", "p2"), ("p8", "p2"),
    ("p3", "p5"), ("p4", "p6"), ("p7", "p9"), ("p8", "p10"), ("p3", "p4"),
    ("p5", "p6"), ("p7", "p8"), ("p9", "p10"), ("p1", "p11"), ("p2", "p12"),
    ("p11", "p3"), ("p7", "p12"), ("p11", "p12"), ("p15", "p5"), ("p15", "p3"),
    ("p15", "p11"), ("p16", "p9"), ("p16", "p7"), ("p16", "p12"), ("p1", "p11r"),
    ("p2", "p12r"), ("p11r", "p4"), ("p8", "p12r"), ("p11r", "p12r"),
    ("p15r", "p6"), ("p15r", "p4"), ("p15r", "p11r"), ("p16r", "p10"),
    ("p16r", "p8"), ("p16r", "p12r"), ("p16", "p15"), ("p16r", "p15r"),
]

_FIG8A_NODES = {
    "p1": (-0.4, 0.4), "p2": (-0.4, 1.2), "p3": (-0.4, 2.0), "p1r": (0.4, 0.4),
    "p2r": (0.4, 1.2), "p3r": (0.4, 2.0), "p4": (-0.4, -0.4), "p5": (-0.4, -1.2),
    "p6": (-0.4, -2.0), "p4r": (0.4, -0.4), "p5r": (0.4, -1.2), "p6r": (0.4, -2.0),
    "p7": (-1.2, 1.2), "p8": (-1.2, 0.4), "p9": (-1.2, -0.4), "p10": (-1.2, -1.2),
    "p7r": (1.2, 1.2), "p8r": (1.2, 0.4), "p9r": (1.2, -0.4), "p10r": (1.2, -1.2),
    "p11": (-1.8, 1.8), "p12": (-2.0, 0.4), "p13": (-2.0, -0.4), "p14": (-1.8, -1.8),
    "p11r": (1.8, 1.8), "p12r": (2.0, 0.4), "p13r": (2.0, -0.4), "p14r": (1.8, -1.8),
}
_FIG8A_EDGES = [
    ("p1", "p2"), ("p2", "p3"), ("p1", "p4"), ("p4", "p5"), ("p5", "p6"),
    ("p7", "p8"), ("p8", "p9"), ("p9", "p10"), ("p11", "p12"), ("p12", "p13"),
    ("p13", "p14"), ("p3", "p11"), ("p3", "p7"), ("p7", "p11"), ("p2", "p7"),
    ("p1", "p8"), ("p4", "p9"), ("p5", "p10"), ("p6", "p10"), ("p6", "p14"),
    ("p14", "p10"), ("p10", "p13"), ("p13", "p9"), ("p8", "p12"), ("p7", "p12"),
    ("p1r", "p2r"), ("p2r", "p3r"), ("p1r", "p4r"), ("p4r", "p5r"), ("p5r", "p6r"),
    ("p7r", "p8r"), ("p8r", "p9r"), ("p9r", "p10r"), ("p11r", "p12r"),
    ("p12r", "p13r"), ("p13r", "p14r"), ("p3r", "p11r"), ("p3r", "p7r"),
    ("p7r", "p11r"), ("p2r", "p7r"), ("p1r", "p8r"), ("p4r", "p9r"),
    ("p5r", "p10r"), ("p6r", "p10r"), ("p6r", "p14r"), ("p14r", "p10r"),
    ("p10r", "p13r"), ("p13r", "p9r"), ("p8r", "p12r"), ("p7r", "p12r"),
    ("p3", "p3r"), ("p2", "p2r"), ("p1", "p1r"), ("p4", "p4r"), ("p5", "p5r"),
    ("p6", "p6r"),
]

_FIG8B_NODES = {
    "p1": (-0.4, 0.8), "p2": (-0.4, 1.4), "p3": (-0.4, 2.0), "p4": (0.0, 2.6),
    "p11": (0.4, 0.8), "p22": (0.4, 1.4), "p33": (0.4, 2.0), "p1u": (-0.4, -0.8),
    "p2u": (-0.4, -1.4), "p3u": (-0.4, -2.0), "p11u": (0.4, -0.8),
    "p22u": (0.4, -1.4), "p33u": (0.4, -2.0), "p4u": (0.0, -2.6),
    "p1l": (-0.8, 0.4), "p2l": (-1.4, 0.4), "p3l": (-2.0, 0.4), "p4l": (-2.6, 0.0),
    "p11l": (-0.8, -0.4), "p22l": (-1.4, -0.4), "p33l": (-2.0, -0.4),
    "p1r": (0.8, 0.4), "p2r": (1.4, 0.4), "p3r": (2.0, 0.4), "p4r": (2.6, 0.0),
    "p11r": (0.8, -0.4), "p22r": (1.4, -0.4), "p33r": (2.0, -0.4),
    "q1": (-0.9, 1.9), "m1": (-2.1, 2.1), "q1l": (-1.9, 0.9), "b1": (-0.9, 2.5),
    "b1l": (-2.5, 0.9), "q1r": (0.9, 1.9), "m1r": (2.1, 2.1), "q1lr": (1.9, 0.9),
    "b1r": (0.9, 2.5), "b1lr": (2.5, 0.9), "q1u": (-0.9, -1.9), "m1u": (-2.1, -2.1),
    "q1lu": (-1.9, -0.9), "b1u": (-0.9, -2.5), "b1luu": (-2.5, -0.9),
    "q1ru": (0.9, -1.9), "m1ru": (2.1, -2.1), "q1lru": (1.9, -0.9),
    "b1ru": (0.9, -2.5), "b1lu": (2.5, -0.9),
}
_FIG8B_EDGES = [
    ("p1", "p2"), ("p2", "p3"), ("p3", "p4"), ("p11", "p22"), ("p22", "p33"),
    ("p33", "p4"), ("p1u", "p2u"), ("p2u", "p3u"), ("p3u", "p4u"),
    ("p11u", "p22u"), ("p22u", "p33u"), ("p33u", "p4u"), ("p1l", "p2l"),
    ("p2l", "p3l"), ("p3l", "p4l"), ("p11l", "p22l"), ("p22l", "p33l"),
    ("p33l", "p4l"), ("p1r", "p2r"), ("p2r", "p3r"), ("p3r", "p4r"),
    ("p11r", "p22r"), ("p22r", "p33r"), ("p33r", "p4r"), ("p1", "p11"),
    ("p11", "p1r"), ("p1r", "p11r"), ("p11r", "p11u"), ("p11u", "p1u"),
    ("p1u", "p11l"), ("p11l", "p1l"), ("p1l", "p1"), ("p2", "p22"),
    ("p22", "p2r"), ("p2r", "p22r"), ("p22r", "p22u"), ("p22u", "p2u"),
    ("p2u", "p22l"), ("p22l", "p2l"), ("p2l", "p2"), ("p3", "p33"),
    ("p33", "q1r"), ("q1r", "q1lr"), ("q1lr", "p3r"), ("p3r", "p33r"),
    ("p33r", "q1lru"), ("q1lru", "q1ru"), ("q1ru", "p33u"), ("p33u", "p3u"),
    ("p3u", "q1u"), ("q1u", "q1lu"), ("q1lu", "p33l"), ("p33l", "p3l"),
    ("p3l", "q1l"), ("q1l", "q1"), ("q1", "p3"), ("p22", "q1r"), ("p2", "q1"),
    ("p2r", "q1lr"), ("p22r", "q1lru"), ("p22u", "q1ru"), ("p2u", "q1u"),
    ("p22l", "q1lu"), ("p2l", "q1l"), ("p4", "b1r"), ("b1r", "m1r"),
    ("m1r", "b1lr"), ("b1lr", "p4r"), ("p4r", "b1lu"), ("b1lu", "m1ru"),
    ("m1ru", "b1ru"), ("b1ru", "p4u"), ("p4u", "b1u"), ("b1u", "m1u"),
    ("m1u", "b1luu"), ("b1luu", "p4l"), ("p4l", "b1l"), ("b1l", "m1"),
    ("m1", "b1"), ("b1", "p4"), ("m1r", "q1r"), ("m1r", "q1lr"),
    ("m1ru", "q1lru"), ("m1ru", "q1ru"), ("m1u", "q1u"), ("m1u", "q1lu"),
    ("m1", "q1"), ("m1", "q1l"), ("b1r", "p33"), ("b1r", "q1r"),
    ("b1lr", "q1lr"), ("b1lr", "p3r"), ("b1lu", "p33r"), ("b1lu", "q1lru"),
    ("b1ru", "p33u"), ("b1ru", "q1ru"), ("b1u", "p3u"), ("b1u", "q1u"),
    ("b1luu", "p33l"), ("b1luu", "q1lu"), ("b1l", "p3l"), ("b1l", "q1l"),
    ("b1", "p3"), ("b1", "q1"),
]

_FIG9A_NODES = {
    "p0": (0.0, 0.0), "p1": (0.0, 0.6), "p2": (0.0, 1.2), "p3": (0.0, 1.8),
    "p4": (0.0, 2.4), "p1u": (0.0, -0.6), "p2u": (0.0, -1.2), "p3u": (0.0, -1.8),
    "p4u": (0.0, -2.4), "p1r": (0.6, 0.0), "p2r": (1.2, 0.0), "p3r": (1.8, 0.0),
    "p4r": (2.4, 0.0), "p1l": (-0.6, 0.0), "p2l": (-1.2, 0.0), "p3l": (-1.8, 0.0),
    "p4l": (-2.4, 0.0), "d1": (0.5, 0.5), "d2": (0.9, 0.9), "d3": (1.3, 1.3),
    "d4": (1.7, 1.7), "d1l": (-0.5, 0.5), "d2l": (-0.9, 0.9), "d3l": (-1.3, 1.3),
    "d4l": (-1.7, 1.7), "d1lu": (-0.5, -0.5), "d2lu": (-0.9, -0.9),
    "d3lu": (-1.3, -1.3), "d4lu": (-1.7, -1.7), "d1r": (0.5, -0.5),
    "d2r": (0.9, -0.9), "d3r": (1.3, -1.3), "d4r": (1.7, -1.7),
}
_FIG9A_EDGES = [
    ("p0", "p1"), ("p1", "p2"), ("p2", "p3"), ("p3", "p4"), ("p0", "p1r"),
    ("p1r", "p2r"), ("p2r", "p3r"), ("p3r", "p4r"), ("p0", "p1l"),
    ("p1l", "p2l"), ("p2l", "p3l"), ("p3l", "p4l"), ("p0", "p1u"),
    ("p1u", "p2u"), ("p2u", "p3u"), ("p3u", "p4u"), ("p0", "d1"), ("d1", "d2"),
    ("d2", "d3"), ("d3", "d4"), ("p0", "d1l"), ("d1l", "d2l"), ("d2l", "d3l"),
    ("d3l", "d4l"), ("p0", "d1lu"), ("d1lu", "d2lu"), ("d2lu", "d3lu"),
    ("d3lu", "d4lu"), ("p0", "d1r"), ("d1r", "d2r"), ("d2r", "d3r"),
    ("d3r", "d4r"), ("p1", "d1l"), ("d1l", "p1l"), ("p1l", "d1lu"),
    ("d1lu", "p1u"), ("p1u", "d1r"), ("d1r", "p1r"), ("p1r", "d1"), ("d1", "p1"),
    ("p2", "d2l"), ("d2l", "p2l"), ("p2l", "d2lu"), ("d2lu", "p2u"),
    ("p2u", "d2r"), ("d2r", "p2r"), ("p2r", "d2"), ("d2", "p2"), ("p3", "d3l"),
    ("d3l", "p3l"), ("p3l", "d3lu"), ("d3lu", "p3u"), ("p3u", "d3r"),
    ("d3r", "p3r"), ("p3r", "d3"), ("d3", "p3"), ("p4", "d4l"), ("d4l", "p4l"),
    ("p4l", "d4lu"), ("d4lu", "p4u"), ("p4u", "d4r"), ("d4r", "p4r"),
    ("p4r", "d4"), ("d4", "p4"), ("p4", "d3"), ("p4", "d3l"), ("d3l", "p4l"),
    ("p4l", "d3lu"), ("d3lu", "p4u"), ("p4u", "d3r"), ("d3r", "p4r"),
    ("p4r", "d3"),
]

_FIG11A_NODES = {
    "p1": (0.0, 0.0), "p2": (0.0, 3.0), "p3": (-0.8, 2.3), "p4": (-1.3, 0.7),
    "p5": (-1.8, 2.5), "p6": (-1.8, 0.2), "p3r": (0.8, 2.3), "p4r": (1.3, 0.7),
    "p5r": (1.8, 2.5), "p6r": (1.8, 0.2),
}
# Same combinatorics, but every rung of both prisms is vertical, so each
# prism sits at a stressed special position.
_FIG11B_NODES = {
    "p1": (0.0, 0.0), "p2": (0.0, 3.0), "p3": (-1.0, 2.3), "p4": (-1.0, 0.7),
    "p5": (-1.8, 2.5), "p6": (-1.8, 0.2), "p3r": (1.0, 2.3), "p4r": (1.0, 0.7),
    "p5r": (1.8, 2.5), "p6r": (1.8, 0.2),
}
_FIG11_EDGES = [
    ("p1", "p2"), ("p1", "p4"), ("p1", "p6"), ("p2", "p5"), ("p2", "p3"),
    ("p3", "p5"), ("p4", "p6"), ("p3", "p4"), ("p5", "p6"), ("p1", "p4r"),
    ("p1", "p6r"), ("p2", "p5r"), ("p2", "p3r"), ("p3r", "p5r"), ("p4r", "p6r"),
    ("p3r", "p4r"), ("p5r", "p6r"),
]


def _fig10_nodes(delta: float) -> tuple[dict, list]:
    """Seven-joint isostatic graph with an apex whose height controls the
    special position.

    The lines through (p6, p5) and (p7, p9) meet at (6, 2.75); mirror images
    meet at (-6, 2.75).  Placing the apex p1 at height 2.75 + delta makes
    those two intersection points collinear with the apex exactly when
    delta = 0, which is where the extra self-stress/mechanism pair appears.
    """
    nodes = {
        "p1": (0.0, 2.75 + delta), "p2": (-2.0, 0.75), "p5": (2.0, 0.75),
        "p6": (0.0, -0.25), "p7": (0.0, 0.5), "p8": (-1.0, 0.875),
        "p9": (1.0, 0.875),
    }
    edges = [
        ("p1", "p2"), ("p1", "p8"), ("p1", "p9"), ("p1", "p5"), ("p8", "p2"),
        ("p5", "p9"), ("p6", "p7"), ("p6", "p2"), ("p6", "p5"), ("p8", "p7"),
        ("p7", "p9"),
    ]
    return nodes, edges


# ---------------------------------------------------------------------------
# Programmatic geometry
# ---------------------------------------------------------------------------

_GRID_XS = (-1.0, 1.0, 3.0, 5.0)
_GRID_YS = (0.0, -2.0, -4.0, -6.0)


def _square_grid() -> tuple[dict, list]:
    """4x4 grid of joints forming a 3x3 block of quadrilaterals."""
    nodes = {}
    for iy, y in enumerate(_GRID_YS):
        for ix, x in enumerate(_GRID_XS):
            nodes[f"g{ix}{iy}"] = (x, y)
    edges = []
    for iy in range(4):
        for ix in range(3):
            edges.append((f"g{ix}{iy}", f"g{ix + 1}{iy}"))
    for ix in range(4):
        for iy in range(3):
            edges.append((f"g{ix}{iy}", f"g{ix}{iy + 1}"))
    return nodes, edges


def _refined_grid() -> tuple[dict, list]:
    """The 4x4 grid with a small square inserted into each quadrilateral.

    Each inserted corner connects to the nearest grid joint; the connector
    lines of each face meet exactly at the face centre, which creates one
    local self-stress per face.
    """
    nodes, edges = _square_grid()
    xs, ys = _GRID_XS, _GRID_YS
    for fx in range(3):
        for fy in range(3):
            cx = (xs[fx] + xs[fx + 1]) / 2.0
            cy = (ys[fy] + ys[fy + 1]) / 2.0
            corner_names = []
            for tag, (sx, sy), (gx, gy) in (
                ("a", (-0.5, 0.5), (fx, fy)),
                ("b", (0.5, 0.5), (fx + 1, fy)),
                ("c", (0.5, -0.5), (fx + 1, fy + 1)),
                ("d", (-0.5, -0.5), (fx, fy + 1)),
            ):
                name = f"f{fx}{fy}{tag}"
                nodes[name] = (cx + sx, cy + sy)
                edges.append((name, f"g{gx}{gy}"))
                corner_names.append(name)
            a, b, c, d = corner_names
            edges.extend([(a, b), (b, c), (c, d), (d, a)])
    return nodes, edges


def _pinned_quad_grid(cols: int = 24, rows: int = 23) -> Framework:
    """Unit square grid with a fully pinned boundary ring (no corner pins).

    ``cols`` columns by ``rows`` rows of internal joints centred on the
    origin; one pin beyond each end of every row and column.
    """
    xs = [c - (cols - 1) / 2.0 for c in range(cols)]
    ys = [r - (rows - 1) / 2.0 for r in range(rows)]
    nodes: dict[str, tuple[float, float]] = {}
    pins: list[str] = []
    for r, y in enumerate(ys):
        for c, x in enumerate(xs):
            nodes[f"v{c}_{r}"] = (x, y)
    for r, y in enumerate(ys):
        for side, x in (("l", xs[0] - 1.0), ("r", xs[-1] + 1.0)):
            name = f"p{side}{r}"
            nodes[name] = (x, y)
            pins.append(name)
    for c, x in enumerate(xs):
        for side, y in (("b", ys[0] - 1.0), ("t", ys[-1] + 1.0)):
            name = f"p{side}{c}"
            nodes[name] = (x, y)
            pins.append(name)
    edges: list[tuple[str, str]] = []
    for c in range(cols):
        edges.append((f"pb{c}", f"v{c}_0"))
        for r in range(rows - 1):
            edges.append((f"v{c}_{r}", f"v{c}_{r + 1}"))
        edges.append((f"v{c}_{rows - 1}", f"pt{c}"))
    for r in range(rows):
        edges.append((f"pl{r}", f"v0_{r}"))
        for c in range(cols - 1):
            edges.append((f"v{c}_{r}", f"v{c + 1}_{r}"))
        edges.append((f"v{cols - 1}_{r}", f"pr{r}"))
    return _build(nodes, edges, pinned=tuple(pins))


# ---------------------------------------------------------------------------
# Entry builders
# ---------------------------------------------------------------------------


def _fig2a() -> CatalogEntry:
    return CatalogEntry(
        name="fig2a",
        description="Mirror-symmetric isostatic truss; the census detects "
        "no self-stress or mechanism and the framework is indeed isostatic.",
        group=_CS_V,
        framework=_build(_FIG2A_NODES, _FIG2A_EDGES),
        census=None,
        expected_census={
            "v": 7, "e": 11, "k": 0,
            "v_sigma": {"sigma": 3}, "e_sigma": {"sigma": 1},
        },
        expected_decomposition={"A'": 0, "A''": 0},
        expected_s=0, expected_m=0,
        expected_s_by_irrep={}, expected_m_by_irrep={},
        expected_rank=11,
    )


def _fig2b() -> CatalogEntry:
    return CatalogEntry(
        name="fig2b",
        description="Nested quadrilaterals joined by four bars fixed by the "
        "mirror; the census guarantees one symmetric self-stress and two "
        "anti-symmetric mechanisms at any mirror-symmetric placement.",
        group=_CS_V,
        framework=_build(_FIG2B_NODES, _FIG2B_EDGES),
        census=None,
        expected_census={
            "v": 8, "e": 12, "k": 1,
            "v_sigma": {"sigma": 0}, "e_sigma": {"sigma": 4},
        },
        expected_decomposition={"A'": -1, "A''": 2},
        expected_s=1, expected_m=2,
        expected_s_by_irrep={"A'": 1}, expected_m_by_irrep={"A''": 2},
        expected_rank=11,
        tags=("symmetry-detected",),
    )


def _fig2c() -> CatalogEntry:
    return CatalogEntry(
        name="fig2c",
        description="Half-turn symmetric isostatic framework with one bar "
        "centred on the rotation centre; nothing is detected.",
        group=_C2,
        framework=_build(_FIG2C_NODES, _FIG2C_EDGES),
        census=None,
        expected_census={"v": 6, "e": 9, "k": 0, "v_c": 0, "e_2": 1},
        expected_decomposition={"A": 0, "B": 0},
        expected_s=0, expected_m=0,
        expected_s_by_irrep={}, expected_m_by_irrep={},
        expected_rank=9,
    )


def _fig3() -> CatalogEntry:
    return CatalogEntry(
        name="fig3",
        description="Triangular prism with one connector lying in the "
        "mirror; symmetry forces the three connector lines through a point, "
        "giving a symmetric self-stress and an anti-symmetric mechanism.",
        group=_CS_V,
        framework=_build(_FIG3_NODES, _FIG3_EDGES),
        census=None,
        expected_census={
            "v": 6, "e": 9, "k": 0,
            "v_sigma": {"sigma": 2}, "e_sigma": {"sigma": 3},
        },
        expected_decomposition={"A'": -1, "A''": 1},
        expected_s=1, expected_m=1,
        expected_s_by_irrep={"A'": 1}, expected_m_by_irrep={"A''": 1},
        expected_rank=8,
        tags=("symmetry-detected",),
    )


def _fig4a() -> CatalogEntry:
    return CatalogEntry(
        name="fig4a",
        description="Over-braced mirror-symmetric framework with no bars "
        "fixed by the mirror; the census detects one anti-symmetric "
        "self-stress.",
        group=_CS_V,
        framework=_build(_FIG4A_NODES, _FIG4A_EDGES),
        census=None,
        expected_census={
            "v": 13, "e": 24, "k": -1,
            "v_sigma": {"sigma": 3}, "e_sigma": {"sigma": 0},
        },
        expected_decomposition={"A'": 0, "A''": -1},
        expected_s=1, expected_m=0,
        expected_s_by_irrep={"A''": 1}, expected_m_by_irrep={},
        expected_rank=23,
        tags=("symmetry-detected",),
    )


def _fig4b() -> CatalogEntry:
    return CatalogEntry(
        name="fig4b",
        description="Over-braced mirror-symmetric framework with four bars "
        "in the mirror line; the census detects two symmetric self-stresses "
        "and one anti-symmetric mechanism.",
        group=_CS_V,
        framework=_build(_FIG4B_NODES, _FIG4B_EDGES),
        census=None,
        expected_census={
            "v": 13, "e": 24, "k": -1,
            "v_sigma": {"sigma": 5}, "e_sigma": {"sigma": 4},
        },
        expected_decomposition={"A'": -2, "A''": 1},
        expected_s=2, expected_m=1,
        expected_s_by_irrep={"A'": 2}, expected_m_by_irrep={"A''": 1},
        expected_rank=22,
        tags=("symmetry-detected",),
    )


def _fig4c() -> CatalogEntry:
    return CatalogEntry(
        name="fig4c",
        description="Under-braced mirror-symmetric ring framework; four "
        "bars perpendicular to and centred on the mirror guarantee a "
        "symmetric self-stress despite the positive freedom number.",
        group=_CS_V,
        framework=_build(_FIG4C_NODES, _FIG4C_EDGES),
        census=None,
        expected_census={
            "v": 12, "e": 20, "k": 1,
            "v_sigma": {"sigma": 0}, "e_sigma": {"sigma": 4},
        },
        expected_decomposition={"A'": -1, "A''": 2},
        expected_s=1, expected_m=2,
        expected_s_by_irrep={"A'": 1}, expected_m_by_irrep={"A''": 2},
        expected_rank=19,
        tags=("symmetry-detected",),
    )


def _fig6a() -> CatalogEntry:
    return CatalogEntry(
        name="fig6a",
        description="C2v framework whose census detects two fully-symmetric "
        "self-stresses, one B1 self-stress and one A2 mechanism.",
        group=_C2V,
        framework=_build(_FIG6A_NODES, _FIG6A_EDGES),
        census=None,
        expected_census={
            "v": 16, "e": 31, "k": -2, "v_c": 0, "e_2": 1,
            "v_sigma": {"sigma_h": 6, "sigma_v": 2},
            "e_sigma": {"sigma_h": 5, "sigma_v": 3},
        },
        expected_decomposition={"A1": -2, "A2": 1, "B1": -1, "B2": 0},
        expected_s=3, expected_m=1,
        expected_s_by_irrep={"A1": 2, "B1": 1},
        expected_m_by_irrep={"A2": 1},
        expected_rank=28,
        tags=("symmetry-detected",),
    )


def _fig6b() -> CatalogEntry:
    return CatalogEntry(
        name="fig6b",
        description="C2v framework with mirror-fixed bars split evenly "
        "between the two mirrors; detects self-stresses of symmetries "
        "A1 (three), B1 and B2, plus one A2 mechanism.",
        group=_C2V,
        framework=_build(_FIG6B_NODES, _FIG6B_EDGES),
        census=None,
        expected_census={
            "v": 18, "e": 37, "k": -4, "v_c": 0, "e_2": 1,
            "v_sigma": {"sigma_h": 0, "sigma_v": 2},
            "e_sigma": {"sigma_h": 5, "sigma_v": 5},
        },
        expected_decomposition={"A1": -3, "A2": 1, "B1": -1, "B2": -1},
        expected_s=5, expected_m=1,
        expected_s_by_irrep={"A1": 3, "B1": 1, "B2": 1},
        expected_m_by_irrep={"A2": 1},
        expected_rank=32,
        tags=("symmetry-detected",),
    )


def _fig8a() -> CatalogEntry:
    return CatalogEntry(
        name="fig8a",
        description="C4v framework with six bars fixed per axis mirror and "
        "two per diagonal mirror; detects A1, B1 and E self-stresses and "
        "A2/B2 mechanisms.",
        group=_C4V,
        framework=_build(_FIG8A_NODES, _FIG8A_EDGES),
        census=None,
        expected_census={
            "v": 28, "e": 56, "k": -3, "v_c": 0, "e_2": 0,
            "v_sigma": {"sigma_v": 0, "sigma_d": 6},
            "e_sigma": {"sigma_v": 6, "sigma_d": 2},
        },
        expected_decomposition={"A1": -2, "A2": 1, "B1": -1, "B2": 1, "E": -1},
        expected_s=5, expected_m=2,
        expected_s_by_irrep={"A1": 2, "B1": 1, "E": 2},
        expected_m_by_irrep={"A2": 1, "B2": 1},
        expected_rank=51,
        tags=("symmetry-detected",),
    )


def _fig8b() -> CatalogEntry:
    return CatalogEntry(
        name="fig8b",
        description="Large C4v framework with six bars fixed per mirror of "
        "each class; twelve self-stresses are detected from the census "
        "alone, spanning A1, B1, B2 and E.",
        group=_C4V,
        framework=_build(_FIG8B_NODES, _FIG8B_EDGES),
        census=None,
        expected_census={
            "v": 48, "e": 104, "k": -11, "v_c": 0, "e_2": 0,
            "v_sigma": {"sigma_v": 2, "sigma_d": 2},
            "e_sigma": {"sigma_v": 6, "sigma_d": 6},
        },
        expected_decomposition={"A1": -4, "A2": 1, "B1": -1, "B2": -1, "E": -3},
        expected_s=12, expected_m=1,
        expected_s_by_irrep={"A1": 4, "B1": 1, "B2": 1, "E": 6},
        expected_m_by_irrep={"A2": 1},
        expected_rank=92,
        tags=("symmetry-detected",),
    )


def _fig9a() -> CatalogEntry:
    return CatalogEntry(
        name="fig9a",
        description="Spider-web-like C4v framework with a centre joint and "
        "eight bars fixed per mirror class; eleven self-stresses are "
        "detected under C4v, ten under C2v and nine under Cs.",
        group=_C4V,
        framework=_build(_FIG9A_NODES, _FIG9A_EDGES),
        census=None,
        expected_census={
            "v": 33, "e": 72, "k": -9, "v_c": 1, "e_2": 0,
            "v_sigma": {"sigma_v": 9, "sigma_d": 9},
            "e_sigma": {"sigma_v": 8, "sigma_d": 8},
        },
        expected_decomposition={"A1": -5, "A2": 2, "B1": -1, "B2": -1, "E": -2},
        expected_s=11, expected_m=2,
        expected_s_by_irrep={"A1": 5, "B1": 1, "B2": 1, "E": 4},
        expected_m_by_irrep={"A2": 2},
        expected_rank=61,
        subgroups=(
            SubgroupExpectation(
                group=_CS_V,
                decomposition={"A'": -8, "A''": -1},
                note="vertical mirror only: nine self-stresses detected",
            ),
            SubgroupExpectation(
                group=_C2V,
                decomposition={"A1": -6, "A2": 1, "B1": -2, "B2": -2},
                note="axis mirrors only: ten self-stresses detected",
            ),
        ),
        tags=("symmetry-detected",),
    )


def _fig9b() -> CatalogEntry:
    base = _fig9a()
    stretched = affine_map(base.framework, np.array([[1.5, 0.0], [0.0, 1.0]]))
    return CatalogEntry(
        name="fig9b",
        description="Horizontal stretch of fig9a.  Affine images keep the "
        "same self-stresses, so all eleven survive although only C2v "
        "symmetry (detecting ten) remains.",
        group=_C2V,
        framework=stretched,
        census=None,
        expected_census={
            "v": 33, "e": 72, "k": -9, "v_c": 1, "e_2": 0,
            "v_sigma": {"sigma_h": 9, "sigma_v": 9},
            "e_sigma": {"sigma_h": 8, "sigma_v": 8},
        },
        expected_decomposition={"A1": -6, "A2": 1, "B1": -2, "B2": -2},
        expected_s=11, expected_m=2,
        expected_s_by_irrep={"A1": 6, "A2": 1, "B1": 2, "B2": 2},
        expected_m_by_irrep={"A2": 2},
        expected_rank=61,
        tags=("affine-image",),
    )


def _fig10(delta: float = 0.0) -> CatalogEntry:
    nodes, edges = _fig10_nodes(float(delta))
    special = float(delta) == 0.0
    return CatalogEntry(
        name="fig10",
        description="Isostatic graph placed at (delta=0) or near (delta!=0) "
        "the special position where two construction points and the apex "
        "are collinear; at the special position a fully-symmetric "
        "self-stress and a fully-symmetric mechanism appear, invisible to "
        "the census.",
        group=_CS_V,
        framework=_build(nodes, edges),
        census=None,
        expected_census={
            "v": 7, "e": 11, "k": 0,
            "v_sigma": {"sigma": 3}, "e_sigma": {"sigma": 1},
        },
        expected_decomposition={"A'": 0, "A''": 0},
        expected_s=1 if special else 0,
        expected_m=1 if special else 0,
        expected_s_by_irrep={"A'": 1} if special else {},
        expected_m_by_irrep={"A'": 1} if special else {},
        expected_rank=10 if special else 11,
        tags=("special-position",) if special else (),
    )


def _fig11a() -> CatalogEntry:
    return CatalogEntry(
        name="fig11a",
        description="Two triangular prisms sharing a mirror-line bar, at a "
        "generic mirror-symmetric position: isostatic, nothing detected.",
        group=_CS_V,
        framework=_build(_FIG11A_NODES, _FIG11_EDGES),
        census=None,
        expected_census={
            "v": 10, "e": 17, "k": 0,
            "v_sigma": {"sigma": 2}, "e_sigma": {"sigma": 1},
        },
        expected_decomposition={"A'": 0, "A''": 0},
        expected_s=0, expected_m=0,
        expected_s_by_irrep={}, expected_m_by_irrep={},
        expected_rank=17,
    )


def _fig11b() -> CatalogEntry:
    return CatalogEntry(
        name="fig11b",
        description="The prism pair of fig11a with all rungs vertical: each "
        "prism is at its special position, yielding two self-stresses and "
        "two mechanisms that split evenly between the symmetric and "
        "anti-symmetric types.",
        group=_CS_V,
        framework=_build(_FIG11B_NODES, _FIG11_EDGES),
        census=None,
        expected_census={
            "v": 10, "e": 17, "k": 0,
            "v_sigma": {"sigma": 2}, "e_sigma": {"sigma": 1},
        },
        expected_decomposition={"A'": 0, "A''": 0},
        expected_s=2, expected_m=2,
        expected_s_by_irrep={"A'": 1, "A''": 1},
        expected_m_by_irrep={"A'": 1, "A''": 1},
        expected_rank=15,
        tags=("special-position",),
    )


def _fig12a() -> CatalogEntry:
    nodes, edges = _square_grid()
    return CatalogEntry(
        name="fig12a",
        description="3x3 block of quadrilaterals with C4v symmetry: five "
        "mechanisms of symmetries A2, B2 (twice) and E, no self-stress.",
        group=_C4V,
        framework=_build(nodes, edges),
        census=None,
        expected_census={
            "v": 16, "e": 24, "k": 5, "v_c": 0, "e_2": 0,
            "v_sigma": {"sigma_v": 0, "sigma_d": 4},
            "e_sigma": {"sigma_v": 4, "sigma_d": 0},
        },
        expected_decomposition={"A1": 0, "A2": 1, "B1": 0, "B2": 2, "E": 1},
        expected_s=0, expected_m=5,
        expected_s_by_irrep={},
        expected_m_by_irrep={"A2": 1, "B2": 2, "E": 2},
        expected_rank=24,
    )


def _fig12b() -> CatalogEntry:
    nodes, edges = _refined_grid()
    return CatalogEntry(
        name="fig12b",
        description="The quadrilateral block with a square inserted into "
        "each face; the connector lines of each face are concurrent, so "
        "every face carries a local self-stress (nine in total) while the "
        "freedom number is unchanged.",
        group=_C4V,
        framework=_build(nodes, edges),
        census=None,
        expected_census={
            "v": 52, "e": 96, "k": 5, "v_c": 0, "e_2": 0,
            "v_sigma": {"sigma_v": 0, "sigma_d": 10},
            "e_sigma": {"sigma_v": 10, "sigma_d": 6},
        },
        expected_decomposition={"A1": -3, "A2": 4, "B1": 0, "B2": 2, "E": 1},
        expected_s=9, expected_m=14,
        expected_s_by_irrep={"A1": 3, "B1": 1, "B2": 1, "E": 4},
        expected_m_by_irrep={"A2": 4, "B1": 1, "B2": 3, "E": 6},
        expected_rank=87,
        tags=("special-position",),
    )


def _gridshell() -> CatalogEntry:
    cen = make_census(
        "Cnv", 2, v=553, e=1102, pinned=True, v_c=1, e_2=0,
        v_sigma=(1, 1), e_sigma=(4, 18), mirror_angle_deg=0.0,
    )
    return CatalogEntry(
        name="gridshell",
        description="Census of a form-found pinned quad-dominant roof "
        "structure (553 internal joints, 1102 bars, C2v).  Published as "
        "counts only; joint coordinates are not available, so this entry "
        "supports census analysis but not numeric verification.  The "
        "mirror-fixed joint counts are nominal (only the centre joint is "
        "known to lie on both mirrors); they do not affect any 2D count.",
        group=None,
        framework=None,
        census=cen,
        expected_census={
            "v": 553, "e": 1102, "k": 4, "v_c": 1, "e_2": 0,
            "e_sigma": {"sigma_h": 4, "sigma_v": 18},
        },
        expected_decomposition={"A1": -5, "A2": 6, "B1": 5, "B2": -2},
        subgroups=(
            SubgroupExpectation(
                census=make_census(
                    "Cnv", 1, v=553, e=1102, pinned=True,
                    v_sigma=1, e_sigma=18, mirror_angle_deg=90.0,
                ),
                decomposition={"A'": -7, "A''": 11},
                note="vertical mirror only: seven symmetric self-stresses",
            ),
            SubgroupExpectation(
                census=make_census(
                    "Cnv", 1, v=553, e=1102, pinned=True,
                    v_sigma=1, e_sigma=4, mirror_angle_deg=0.0,
                ),
                decomposition={"A'": 0, "A''": 4},
                note="horizontal mirror only: nothing detected",
            ),
        ),
        tags=("census-only", "pinned"),
    )


def _quadgrid() -> CatalogEntry:
    return CatalogEntry(
        name="quadgrid",
        description="Synthetic pinned 24x23 unit grid (552 internal joints, "
        "94 pins, 1151 bars) with C2v symmetry; all 47 self-stresses are "
        "detected by the census and the framework has no mechanism.",
        group=_C2V,
        framework=_pinned_quad_grid(),
        census=None,
        expected_census={
            "v": 552, "e": 1151, "k": -47, "v_c": 0, "e_2": 1,
            "v_sigma": {"sigma_h": 24, "sigma_v": 0},
            "e_sigma": {"sigma_h": 25, "sigma_v": 23},
        },
        expected_decomposition={"A1": -24, "A2": 0, "B1": -12, "B2": -11},
        expected_s=47, expected_m=0,
        expected_s_by_irrep={"A1": 24, "B1": 12, "B2": 11},
        expected_m_by_irrep={},
        expected_rank=1104,
        tags=("synthetic", "pinned", "symmetry-detected"),
    )


_BUILDERS: dict[str, Callable[..., CatalogEntry]] = {
    "fig2a": _fig2a, "fig2b": _fig2b, "fig2c": _fig2c, "fig3": _fig3,
    "fig4a": _fig4a, "fig4b": _fig4b, "fig4c": _fig4c,
    "fig6a": _fig6a, "fig6b": _fig6b, "fig8a": _fig8a, "fig8b": _fig8b,
    "fig9a": _fig9a, "fig9b": _fig9b, "fig10": _fig10,
    "fig11a": _fig11a, "fig11b": _fig11b, "fig12a": _fig12a, "fig12b": _fig12b,
    "gridshell": _gridshell, "quadgrid": _quadgrid,
}


def names() -> tuple[str, ...]:
    """Names of all catalog entries, in canonical order."""
    return tuple(_BUILDERS)


def generate(name: str, **params) -> CatalogEntry:
    """Build the named catalog entry.

    ``fig10`` accepts ``delta`` (apex offset from the special position,
    default 0.0).  Raises :class:`UnknownEntry` for unknown names and
    TypeError for a parameter the entry does not accept.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(_BUILDERS)
        raise UnknownEntry(f"unknown catalog entry {name!r} (known: {known})") from None
    accepted = list(inspect.signature(builder).parameters)
    unknown = [key for key in params if key not in accepted]
    if unknown:
        accepts = f"accepts: {', '.join(accepted)}" if accepted else "accepts no parameters"
        raise TypeError(f"unknown parameter {unknown[0]!r} for {name}; {name} {accepts}")
    return builder(**params)


def all_entries() -> list[CatalogEntry]:
    """Generate every entry with default parameters."""
    return [generate(name) for name in names()]
