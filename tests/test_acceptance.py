"""Each of magcp.acceptance's nine criteria passes; ``magcp validate``
prints their rows with each deviation, tolerance and detail."""

from magcp import acceptance


def passes(criterion):
    rows = criterion()
    assert rows and all(row["passed"] for row in rows), rows


def test_criterion_1_pc_closed_form_equivalence():
    passes(acceptance.pc_closed_form_equivalence)


def test_criterion_2_asymptotic_region_laws():
    passes(acceptance.asymptotic_region_laws)


def test_criterion_3_magnetostatic_term():
    passes(acceptance.magnetostatic_term)


def test_criterion_4_spin_thresholds():
    passes(acceptance.spin_thresholds)


def test_criterion_5_levitation_equilibria():
    passes(acceptance.levitation_equilibria)


def test_criterion_6_excited_state_closed_form():
    passes(acceptance.excited_state_closed_form)


def test_criterion_7_surface_resonance():
    passes(acceptance.surface_resonance)


def test_criterion_8_property_suite():
    passes(acceptance.property_suite)


def test_criterion_9_spin_flip_rate_formula():
    passes(acceptance.spin_flip_rate_formula)
