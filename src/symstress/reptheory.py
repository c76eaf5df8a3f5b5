"""Character tables and character reduction for planar point groups.

Irrep label conventions (ASCII):

* C_1: "A".  C_2 (cyclic): "A", "B".  C_n for n >= 3: "A0".."A{n-1}" with
  characters chi_t(C_n^j) = exp(2*pi*i*t*j/n); conjugate pairs t and n-t
  carry complex characters but real, equal multiplicities for the real
  characters arising here.
* C_s: "A'" (symmetric) and "A''" (anti-symmetric).
* C_nv, n >= 2: "A1" (fully symmetric), "A2" (+1 on rotations, -1 on
  mirrors); for even n also "B1" and "B2" with character (-1)^j on rotation
  step j, where B1 is +1 on the reference mirror class; two-dimensional
  irreps "E" (or "E1", "E2", ... when there are several) with
  chi(C_n^j) = 2*cos(2*pi*k*j/n) and 0 on mirrors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, NonIntegerMultiplicity
from .symmetry import PointGroup, SymmetryCensus

__all__ = [
    "Irrep",
    "CharacterTable",
    "character_table",
    "reducible_character",
    "reduce",
    "trig_sum",
    "IrrepDecomposition",
    "decomposition_from_counts",
]

# Multiplicities farther than this from an integer mean the input was not a
# character of the group.
REDUCE_TOL = 1e-9


def _snap_char(x: float) -> float:
    for v in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        if abs(x - v) < 1e-12:
            return v
    return x


@dataclass(frozen=True)
class Irrep:
    """One irreducible representation: label, dimension, and its character
    on each conjugacy class (canonical class order)."""

    label: str
    dim: int
    characters: tuple[complex, ...]

    @property
    def is_complex(self) -> bool:
        return any(abs(c.imag) > 0 for c in self.characters)


@dataclass(frozen=True)
class CharacterTable:
    group: PointGroup
    irreps: tuple[Irrep, ...]

    @property
    def class_labels(self) -> tuple[str, ...]:
        return self.group.class_labels()

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return self.group.class_sizes()

    @property
    def order(self) -> int:
        return self.group.order

    def irrep(self, label: str) -> Irrep:
        for ir in self.irreps:
            if ir.label == label:
                return ir
        raise KeyError(f"no irrep labelled {label!r} in {self.group.name}")

    def as_matrix(self) -> np.ndarray:
        """Irreps x classes character matrix (complex)."""
        return np.array([ir.characters for ir in self.irreps], dtype=complex)


def character_table(group: PointGroup) -> CharacterTable:
    """Build the character table of a supported point group."""
    n = group.n
    classes = group.classes
    if group.family == "Cn":
        irreps: list[Irrep] = []
        if n == 1:
            labels = ["A"]
        elif n == 2:
            labels = ["A", "B"]
        else:
            labels = [f"A{t}" for t in range(n)]
        for t, label in enumerate(labels):
            chars: list[complex] = []
            for cls in classes:
                j = cls.step if cls.kind == "rotation" else 0
                theta = 2 * math.pi * t * j / n
                chars.append(
                    complex(_snap_char(math.cos(theta)), _snap_char(math.sin(theta)))
                )
            irreps.append(Irrep(label, 1, tuple(chars)))
        return CharacterTable(group, tuple(irreps))

    # Cnv
    if n == 1:
        a1 = Irrep("A'", 1, (complex(1), complex(1)))
        a2 = Irrep("A''", 1, (complex(1), complex(-1)))
        return CharacterTable(group, (a1, a2))

    mirror_classes = [c.label for c in classes if c.kind == "mirror"]
    ref_mirror = mirror_classes[0]

    def build(label: str, dim: int, on_class) -> Irrep:
        return Irrep(
            label, dim, tuple(complex(on_class(cls)) for cls in classes)
        )

    irreps = [
        build("A1", 1, lambda cls: 1.0),
        build("A2", 1, lambda cls: -1.0 if cls.kind == "mirror" else 1.0),
    ]
    if n % 2 == 0:
        irreps.append(
            build(
                "B1",
                1,
                lambda cls: (
                    (-1.0) ** cls.step
                    if cls.kind != "mirror"
                    else (1.0 if cls.label == ref_mirror else -1.0)
                ),
            )
        )
        irreps.append(
            build(
                "B2",
                1,
                lambda cls: (
                    (-1.0) ** cls.step
                    if cls.kind != "mirror"
                    else (-1.0 if cls.label == ref_mirror else 1.0)
                ),
            )
        )
    n_twodim = (n - 1) // 2 if n % 2 == 1 else n // 2 - 1
    for k in range(1, n_twodim + 1):
        label = "E" if n_twodim == 1 else f"E{k}"
        irreps.append(
            build(
                label,
                2,
                lambda cls, k=k: (
                    0.0
                    if cls.kind == "mirror"
                    else _snap_char(2 * math.cos(2 * math.pi * k * cls.step / n))
                ),
            )
        )
    return CharacterTable(group, tuple(irreps))


def reducible_character(census: SymmetryCensus) -> np.ndarray:
    """The character of Gamma(m) - Gamma(s) from a symmetry census.

    Per conjugacy class with coordinate-action trace ``tr`` (2 for the
    identity, 2*cos(phi) for rotations, 0 for mirrors) and determinant
    ``det`` (+1 rotations, -1 mirrors), the entry is::

        unpinned:  fixed_vertices * tr - fixed_edges - (tr + det)
        pinned:    fixed_vertices * tr - fixed_edges

    which on the identity reduces to 2v - e - 3 (or 2v - e when pinned).
    """
    values = []
    for idx, cls in enumerate(census.group.classes):
        tr = cls.trace
        det = cls.det
        val = census.fixed_vertices[idx] * tr - census.fixed_edges[idx]
        if not census.pinned:
            val -= tr + det
        values.append(val)
    return np.array(values, dtype=float)


@dataclass(frozen=True)
class IrrepDecomposition:
    """Integer multiplicities per irrep: Gamma(m) - Gamma(s) = sum_i gamma_i
    Irrep_i.  Ordered as in the character table."""

    group_name: str
    terms: tuple[tuple[str, int, int], ...]  # (label, dim, coefficient)

    def coefficient(self, label: str) -> int:
        for lab, _, coeff in self.terms:
            if lab == label:
                return coeff
        raise KeyError(f"no irrep labelled {label!r}")

    def __getitem__(self, label: str) -> int:
        return self.coefficient(label)

    def to_dict(self) -> dict[str, int]:
        return {lab: coeff for lab, _, coeff in self.terms}

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _, _ in self.terms)

    @property
    def total(self) -> int:
        """sum_i dim_i * gamma_i, which must equal the freedom number k."""
        return sum(dim * coeff for _, dim, coeff in self.terms)

    @property
    def s_detected(self) -> int:
        """Independent self-stresses detected: sum_i dim_i * max(0, -gamma_i)."""
        return sum(dim * max(0, -coeff) for _, dim, coeff in self.terms)

    @property
    def m_detected(self) -> int:
        """Independent mechanisms detected: sum_i dim_i * max(0, gamma_i)."""
        return sum(dim * max(0, coeff) for _, dim, coeff in self.terms)

    def __str__(self) -> str:
        parts: list[str] = []
        for lab, _, coeff in self.terms:
            if coeff == 0:
                continue
            mag = abs(coeff)
            body = lab if mag == 1 else f"{mag}{lab}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def decomposition_from_counts(
    table: CharacterTable, counts: Mapping[str, int]
) -> IrrepDecomposition:
    """Build a decomposition from a label -> coefficient mapping (absent
    labels mean zero)."""
    terms = tuple(
        (ir.label, ir.dim, int(counts.get(ir.label, 0))) for ir in table.irreps
    )
    return IrrepDecomposition(table.group.name, terms)


def reduce(
    character: Sequence[float] | np.ndarray,
    table: CharacterTable,
    tol: float = REDUCE_TOL,
) -> IrrepDecomposition:
    """Reduce a class function into integer irrep multiplicities.

    gamma_i = (1/|G|) * sum_classes size * value * conj(chi_i).  Raises
    NonIntegerMultiplicity when any multiplicity is farther than ``tol``
    from an integer (the input was not a character of the group).
    """
    sizes = np.array(table.class_sizes, dtype=float)
    ch = np.asarray(character, dtype=complex)
    if ch.shape != sizes.shape:
        raise DimensionMismatch(
            f"character has {ch.shape[0]} entries, group has {sizes.shape[0]} classes"
        )
    chars = table.as_matrix()
    raw = (chars.conj() * (sizes * ch)).sum(axis=1) / float(table.order)
    coeffs: list[int] = []
    for ir, val in zip(table.irreps, raw):
        nearest = round(val.real)
        if abs(val.real - nearest) > tol or abs(val.imag) > tol:
            raise NonIntegerMultiplicity(
                f"multiplicity of {ir.label} is {val:.3g}, not an integer "
                f"(tolerance {tol:g})"
            )
        coeffs.append(int(nearest))
    terms = tuple(
        (ir.label, ir.dim, coeff) for ir, coeff in zip(table.irreps, coeffs)
    )
    return IrrepDecomposition(table.group.name, terms)


def trig_sum(n: int, t: int) -> float:
    """Exact value of sum_{j=0}^{n-1} cos(2*pi*t*j/n) * cos(2*pi*j/n).

    The sum collapses to n/2 when t is congruent to +1 or -1 mod n and to 0
    otherwise; this is the orthogonality fact that makes the closed-form
    rotation-group counts collapse to a single shifted coefficient.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = t % n
    if n == 1:
        return 1.0
    if n == 2:
        # cos terms are (+1, -1); t odd picks both signs.
        return 2.0 if r == 1 else 0.0
    return n / 2 if r in (1, n - 1) else 0.0
