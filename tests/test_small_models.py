"""The DM core against the references on every model of at most 4 x 4.

A random sample cannot show that no small model disagrees; an exhaustive
run can, up to a size bound, and most faults show on some small input (the
small-scope hypothesis).  Rows are taken as a multiset of unknown sets, so
each incidence structure appears once up to row order, and every equation
carries a fault: faults only label equations, so that covers every fault
placement.
"""

import itertools

import pytest

from switchdiag.oraclecheck import definitional_dm_decompose, oracle_partition
from switchdiag.structural import StructuralModel, dm_decompose, isolability_partition

MAX_EQUATIONS = 4
# Multisets of at most 4 rows drawn from the 2^u unknown sets: 5430 models in all.
MODEL_COUNTS = {0: 5, 1: 15, 2: 70, 3: 495, 4: 4845}


def small_models(n_unknowns: int):
    unknowns = tuple(f"x{j}" for j in range(1, n_unknowns + 1))
    row_sets = [
        frozenset(c) for r in range(n_unknowns + 1) for c in itertools.combinations(unknowns, r)
    ]
    for n_eq in range(MAX_EQUATIONS + 1):
        for rows in itertools.combinations_with_replacement(row_sets, n_eq):
            yield StructuralModel(
                tuple((f"e{i}", row, f"f{i}") for i, row in enumerate(rows, start=1)), unknowns
            )


@pytest.mark.parametrize("n_unknowns", sorted(MODEL_COUNTS))
def test_every_small_model_agrees_with_the_references(n_unknowns):
    checked = 0
    for model in small_models(n_unknowns):
        dm, report = dm_decompose(model), isolability_partition(model)
        assert dm == definitional_dm_decompose(model), model.rows
        assert report == oracle_partition(model), model.rows
        # The results do not depend on declaration order.
        flipped = StructuralModel(model.rows[::-1], model.unknowns[::-1])
        assert dm_decompose(flipped) == dm, model.rows
        assert isolability_partition(flipped) == report, model.rows
        checked += 1
    assert checked == MODEL_COUNTS[n_unknowns]
