"""Character tables, reduction, decompositions, the trig identity, and the
branching rule over the subgroup lattice."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given

from symstress import (
    CharacterTable,
    GroupSpec,
    Irrep,
    NonIntegerMultiplicity,
    analyze,
    catalog,
    character_table,
    decomposition_from_counts,
    detect_groups,
    group_elements,
    make_census,
    reduce,
    reducible_character,
    trig_sum,
    verify,
)
from symstress.catalog import _pinned_quad_grid
from test_numeric import _ring_cnv, _symmetric_frameworks

ORDERS = list(range(1, 65)) + [128, 256, 512]
ALL_GROUPS = [("Cn", n) for n in ORDERS] + [("Cnv", n) for n in ORDERS]


@functools.lru_cache(maxsize=None)
def _group(family, n):
    return group_elements(family, n)


def _table(family, n):
    return character_table(_group(family, n))


def _reference_snap(x: float) -> float:
    for v in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        if abs(x - v) < 1e-12:
            return v
    return x


def reference_table(group) -> CharacterTable:
    """The character table built entry by entry, one closure per irrep:
    the builder ``character_table`` must equal bit for bit."""
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
                    complex(_reference_snap(math.cos(theta)), _reference_snap(math.sin(theta)))
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
                    else _reference_snap(2 * math.cos(2 * math.pi * k * cls.step / n))
                ),
            )
        )
    return CharacterTable(group, tuple(irreps))


def _bits(table):
    """Labels, dimensions, and each character's real and imaginary parts as
    ``float.hex`` strings, so that signed zeros count."""
    return [
        (ir.label, ir.dim, [(type(c), c.real.hex(), c.imag.hex()) for c in ir.characters])
        for ir in table.irreps
    ]


class TestCharacterTables:
    @pytest.mark.parametrize("family, n", ALL_GROUPS)
    def test_bitwise_equal_to_reference(self, family, n):
        group = _group(family, n)
        assert _bits(character_table(group)) == _bits(reference_table(group))

    @pytest.mark.parametrize("family, n", ALL_GROUPS)
    def test_row_orthogonality(self, family, n):
        group = _group(family, n)
        table = character_table(group)
        sizes = np.array([c.size for c in group.classes], dtype=float)
        order = sizes.sum()
        chars = np.array([ir.characters for ir in table.irreps])
        gram = (chars * sizes) @ chars.conj().T / order
        np.testing.assert_allclose(gram, np.eye(len(table.irreps)), atol=1e-12)

    @pytest.mark.parametrize("family, n", ALL_GROUPS)
    def test_column_orthogonality(self, family, n):
        table = _table(family, n)
        sizes = np.array(table.class_sizes, dtype=float)
        chars = table.as_matrix()
        dims = np.array([ir.dim for ir in table.irreps])
        # sum_i d_i conj(chi_i(g)) = |G| delta_{g,E}: the irrep projectors
        # resolve the identity, as verify's projector check tests.
        identity = np.zeros(len(sizes))
        identity[0] = table.order
        np.testing.assert_allclose(dims @ chars.conj(), identity, atol=1e-9)
        # sum_i conj(chi_i(a)) chi_i(b) = delta_ab |G| / |class a|.
        np.testing.assert_allclose(chars.conj().T @ chars, np.diag(table.order / sizes), atol=1e-9)

    @pytest.mark.parametrize("family, n", ALL_GROUPS)
    def test_dimension_sum_equals_order(self, family, n):
        group = _group(family, n)
        table = character_table(group)
        order = sum(c.size for c in group.classes)
        assert sum(ir.dim**2 for ir in table.irreps) == order

    def test_cs_labels(self):
        assert [ir.label for ir in _table("Cnv", 1).irreps] == ["A'", "A''"]

    def test_c2v_labels(self):
        assert [ir.label for ir in _table("Cnv", 2).irreps] == ["A1", "A2", "B1", "B2"]

    def test_c4v_labels_and_e_characters(self):
        table = _table("Cnv", 4)
        assert [ir.label for ir in table.irreps] == ["A1", "A2", "B1", "B2", "E"]
        e_row = table.irreps[-1]
        assert e_row.dim == 2
        # classes: E, C4, C2, sigma_v, sigma_d
        assert list(e_row.characters) == [2, 0, -2, 0, 0]

    def test_c6v_has_two_doublets(self):
        table = _table("Cnv", 6)
        assert [ir.label for ir in table.irreps] == [
            "A1", "A2", "B1", "B2", "E1", "E2",
        ]
        assert [ir.dim for ir in table.irreps] == [1, 1, 1, 1, 2, 2]

    def test_cyclic_complex_characters(self):
        table = _table("Cn", 3)
        assert [ir.label for ir in table.irreps] == ["A0", "A1", "A2"]
        w = np.exp(2j * math.pi / 3)
        np.testing.assert_allclose(table.irreps[1].characters, [1, w, w**2])

    def test_character_values_are_snapped(self):
        # Rotation characters hit exact half-integers; snapping keeps the
        # arithmetic exact in floating point.
        table = _table("Cnv", 6)
        e1 = table.irreps[4].characters
        assert 1.0 in [abs(x) for x in e1] or 1.0 in e1


class TestReduce:
    def test_integer_combination_recovered(self):
        group = group_elements("Cnv", 4)
        table = character_table(group)
        chars = np.array([ir.characters for ir in table.irreps])
        target = {"A1": 2, "A2": -1, "B1": 0, "B2": 3, "E": -2}
        mix = sum(
            coeff * chars[i]
            for i, ir in enumerate(table.irreps)
            for lab, coeff in [(ir.label, target[ir.label])]
        )
        dec = reduce(mix, table)
        assert dec.to_dict() == target

    def test_non_integer_multiplicity_rejected(self):
        table = _table("Cnv", 2)
        chars = np.real(np.array(table.irreps[0].characters))
        with pytest.raises(NonIntegerMultiplicity):
            reduce(0.5 * chars, table)

    def test_identity_entry_is_freedom_number(self):
        cen = make_census("Cnv", 1, v=6, e=9, v_sigma=2, e_sigma=3)
        ch = reducible_character(cen)
        assert ch[0] == cen.freedom_number == 0

    def test_mirror_entry_ignores_fixed_vertices(self):
        # A mirror has trace zero in the plane, so only the fixed bars and
        # the rigid-body term enter its character entry.
        lo = make_census("Cnv", 1, v=8, e=5, v_sigma=0, e_sigma=2)
        hi = make_census("Cnv", 1, v=8, e=5, v_sigma=6, e_sigma=2)
        np.testing.assert_array_equal(reducible_character(lo), reducible_character(hi))
        assert reducible_character(lo)[1] == -2 - (0 + -1)

    def test_pinned_character_drops_rigid_body_term(self):
        unpinned = make_census("Cnv", 1, v=5, e=7, v_sigma=1, e_sigma=3)
        pinned = make_census("Cnv", 1, v=5, e=7, pinned=True, v_sigma=1, e_sigma=3)
        assert reducible_character(unpinned)[1] == -3 + 1
        assert reducible_character(pinned)[1] == -3


def _reference_reducible_character(census):
    """The per-class loop ``reducible_character`` was before it took the
    rigid-body term from ``_motion_character``, kept as the reference."""
    values = []
    for idx, cls in enumerate(census.group.classes):
        tr = cls.trace
        det = cls.det
        val = census.fixed_vertices[idx] * tr - census.fixed_edges[idx]
        if not census.pinned:
            val -= tr + det
        values.append(val)
    return np.array(values, dtype=float)


def _census_samples(family, n):
    """Pinned and unpinned ``make_census`` samples of C_n or C_nv, with
    mirrors at angles whose operation matrices are not all exact."""
    mirror_pair = family == "Cnv" and n % 2 == 0
    for pinned, v, e, v_c, e_2, v_s, e_s, angle in itertools.product(
        (False, True), (2, 7), (0, 3, 14), (0, 1), (0, 1), (0, 2), (0, 1), (0.0, 17.0, 90.0)
    ):
        if family == "Cn" and (v_s or e_s or angle):
            continue
        sigma = ((v_s, v_s + 1), (e_s, 2 * e_s)) if mirror_pair else (v_s, e_s)
        yield make_census(
            family, n, v=v, e=e, pinned=pinned, v_c=v_c, e_2=e_2,
            v_sigma=sigma[0], e_sigma=sigma[1], mirror_angle_deg=angle,
        )


class TestReducibleCharacter:
    @pytest.mark.parametrize("family, n", [(f, n) for f in ("Cn", "Cnv") for n in range(1, 9)])
    def test_bitwise_equal_to_per_class_loop(self, family, n):
        samples = list(_census_samples(family, n))
        assert {cen.pinned for cen in samples} == {False, True}
        for cen in samples:
            got, want = reducible_character(cen), _reference_reducible_character(cen)
            assert got.dtype == want.dtype == np.float64
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]

    @pytest.mark.parametrize("family, n", ALL_GROUPS)
    def test_trivial_irrep_is_listed_first(self, family, n):
        first = _table(family, n).irreps[0]
        assert first.dim == 1 and all(c == 1 for c in first.characters)


class TestDecomposition:
    def test_string_rendering(self):
        table = _table("Cnv", 4)
        dec = decomposition_from_counts(
            table, {"A1": -5, "A2": 2, "B1": -1, "B2": -1, "E": -2}
        )
        assert str(dec) == "-5A1 + 2A2 - B1 - B2 - 2E"

    def test_zero_renders_as_zero(self):
        table = _table("Cnv", 1)
        dec = decomposition_from_counts(table, {"A'": 0, "A''": 0})
        assert str(dec) == "0"

    def test_detected_counts_weight_by_dimension(self):
        table = _table("Cnv", 4)
        dec = decomposition_from_counts(
            table, {"A1": -5, "A2": 2, "B1": -1, "B2": -1, "E": -2}
        )
        assert dec.s_detected == 5 + 1 + 1 + 2 * 2
        assert dec.m_detected == 2
        assert dec.total == -5 + 2 - 1 - 1 - 2 * 2

    def test_coefficient_lookup(self):
        table = _table("Cnv", 2)
        dec = decomposition_from_counts(table, {"A1": 1, "A2": 0, "B1": -3, "B2": 2})
        assert dec["B1"] == -3
        with pytest.raises(KeyError):
            dec.coefficient("E")


class TestTrigSum:
    @pytest.mark.parametrize("n", range(1, 25))
    def test_matches_brute_force(self, n):
        for t in range(-n, 2 * n + 1):
            brute = sum(
                math.cos(2 * math.pi * t * j / n) * math.cos(2 * math.pi * j / n)
                for j in range(n)
            )
            assert trig_sum(n, t) == pytest.approx(brute, abs=1e-9), (n, t)

    def test_collapse_values(self):
        assert trig_sum(8, 1) == 4.0
        assert trig_sum(8, 7) == 4.0
        assert trig_sum(8, 3) == 0.0
        assert trig_sum(2, 1) == 2.0
        assert trig_sum(1, 0) == 1.0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            trig_sum(0, 1)


# ---------------------------------------------------------------------------
# Every count against the branching rule over the subgroup lattice.
# Restricting a representation of G to a subgroup H is exact: H's irrep j
# occurs in the restriction of G's irrep i <Res chi_i, psi_j>_H times (Serre,
# Linear Representations of Finite Groups, 1977, ch. 7).  This holds for the
# census character Gamma(m) - Gamma(s) and for the actual self-stress and
# mechanism spaces, so the counts under every subgroup that ``detect_groups``
# lists follow from the counts under the maximal group.  The restriction
# matches H's operations to G's by matrix and reads both groups' characters
# from the reference builder, so it takes from the program only the groups'
# operations and class order.
# ---------------------------------------------------------------------------

# Operations whose matrices differ by more than rounding are different.
MATCH_TOL = 1e-9


def _matched(big, small):
    """Per operation of the subgroup ``small``, in class order, the index of
    the operation of ``big`` with the same matrix."""
    mats = np.array([op.matrix for op in big.operations()])
    found = []
    for op in small.operations():
        dist = np.abs(mats - op.matrix).max(axis=(1, 2))
        assert dist.min() < MATCH_TOL, f"{small!r} is not a subgroup of {big!r}"
        found.append(int(dist.argmin()))
    return found


def _class_map(big, small):
    """For each class of the subgroup ``small``, the index of the class of
    ``big`` that holds its operations."""
    class_of = np.repeat(np.arange(len(big.classes)), big.class_sizes())[_matched(big, small)]
    bounds = np.cumsum((0,) + small.class_sizes())
    found = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # A class of H lies in one class of G: H-conjugates are G-conjugates.
        assert len(set(class_of[lo:hi])) == 1, (big, small)
        found.append(int(class_of[lo]))
    return found


def _branching(big, small):
    """The (G irreps x H irreps) matrix of <Res chi_i, psi_j>_H: non-negative
    integers."""
    restricted = reference_table(big).as_matrix()[:, _class_map(big, small)]
    sub = reference_table(small)
    raw = (restricted * np.array(sub.class_sizes)) @ sub.as_matrix().conj().T / sub.order
    counts = np.rint(raw.real).astype(int)
    np.testing.assert_allclose(raw, counts, atol=1e-9)
    assert (counts >= 0).all()
    return counts


def _restrict(big, small, counts):
    """Per irrep label of ``small``, how often the irrep occurs in the
    restriction of the representation of ``big`` that holds G's irrep ``i``
    ``counts[i]`` times (a negative count for a difference of
    representations)."""
    labels = [ir.label for ir in reference_table(big).irreps]
    restricted = np.array([counts[label] for label in labels]) @ _branching(big, small)
    return {ir.label: int(c) for ir, c in zip(reference_table(small).irreps, restricted)}


def _dims(group):
    return {ir.label: ir.dim for ir in reference_table(group).irreps}


def _spec(group, center):
    """The GroupSpec naming ``group`` about ``center``."""
    family = ("C1" if group.family == "Cn" else "Cs") if group.n == 1 else group.family
    return GroupSpec(
        family, group.n, center=tuple(map(float, center)), mirror_angle_deg=math.degrees(group.mirror_angle)
    )


def _subgroup_count(group):
    """The number of subgroups C_d and C_dv of C_n or C_nv: one C_d per
    divisor d of n and, in C_nv, n / d of C_dv."""
    divisors = [d for d in range(1, group.n + 1) if group.n % d == 0]
    return len(divisors) + (sum(group.n // d for d in divisors) if group.family == "Cnv" else 0)


def _framework(case):
    if case.startswith("ring_cnv-"):
        return _ring_cnv(int(case.split("-")[1]))
    if case == "pinned_quad_grid-12x11":
        return _pinned_quad_grid(12, 11)
    return catalog.generate(case).framework


LATTICE_CASES = [name for name in catalog.names() if catalog.generate(name).framework is not None] + [
    "ring_cnv-1",
    "ring_cnv-2",
    "pinned_quad_grid-12x11",
]


def _lattice_of(fw):
    """Per group that ``detect_groups`` lists, maximal first: (group, its
    analysis, its verification)."""
    found = []
    for group, center in detect_groups(fw):
        spec = _spec(group, center)
        found.append((group, analyze(fw, spec, planarity=False), verify(fw, spec)))
    return found


@functools.lru_cache(maxsize=None)
def _lattice(case):
    return _lattice_of(_framework(case))


def _assert_listed_once(lattice):
    """Every subgroup of the maximal group is listed once, and each resolves
    as listed and verifies."""
    groups = [group for group, _, _ in lattice]
    big = groups[0]
    assert len(groups) == _subgroup_count(big)
    assert len({frozenset(_matched(big, small)) for small in groups}) == len(groups)
    for group, analysis, report in lattice:
        assert analysis.group_name == report.group_name == group.name
        assert report.passed, group


def _assert_census_restricts(lattice):
    (big, top, _), *subgroups = lattice
    gamma = top.decomposition.to_dict()
    for small, analysis, _ in subgroups:
        assert analysis.decomposition.to_dict() == _restrict(big, small, gamma), small


def _assert_verified_counts_restrict(lattice):
    # verify counts d_i times the multiplicity of irrep i.
    (big, _, top), *subgroups = lattice
    big_dims = _dims(big)
    for attr in ("s_by_irrep", "m_by_irrep"):
        copies = {}
        for label, count in getattr(top, attr).items():
            assert count % big_dims[label] == 0, (attr, label)
            copies[label] = count // big_dims[label]
        for small, _, report in subgroups:
            dims = _dims(small)
            expected = {j: dims[j] * c for j, c in _restrict(big, small, copies).items()}
            assert getattr(report, attr) == expected, (small, attr)


def _assert_detected_counts_restrict(lattice):
    (big, top, top_report), *subgroups = lattice
    gamma = top.decomposition.to_dict()
    for small, analysis, report in subgroups:
        dims = _dims(small)
        restricted = _restrict(big, small, gamma)
        assert analysis.s_detected == sum(dims[j] * max(0, -c) for j, c in restricted.items())
        assert analysis.m_detected == sum(dims[j] * max(0, c) for j, c in restricted.items())
        # The spaces themselves do not depend on the group.
        assert (report.s, report.m) == (top_report.s, top_report.m)


@pytest.mark.parametrize("case", LATTICE_CASES)
class TestBranchingRule:
    def test_lattice_is_listed_once(self, case):
        _assert_listed_once(_lattice(case))

    def test_census_decomposition(self, case):
        _assert_census_restricts(_lattice(case))

    def test_verified_counts_by_irrep(self, case):
        _assert_verified_counts_restrict(_lattice(case))

    def test_detected_and_actual_counts(self, case):
        _assert_detected_counts_restrict(_lattice(case))


@given(_symmetric_frameworks())
def test_branching_rule_on_generated_frameworks(case):
    # C_n and C_nv with n <= 8, odd n and n = 6 among them: there a C_dv
    # subgroup with n / d odd has no twin that a wrong mirror angle could
    # land on.
    lattice = _lattice_of(case[0])
    _assert_listed_once(lattice)
    _assert_census_restricts(lattice)
    _assert_verified_counts_restrict(lattice)
    _assert_detected_counts_restrict(lattice)
