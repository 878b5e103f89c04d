import string

from hypothesis import settings, strategies as st

from switchdiag.oraclecheck import IsolabilityMatrix
from switchdiag.structural import IsolabilityReport, StructuralModel

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# A nominal RC time constant of 1 us, below dt/2 at the default dt of 10 us,
# where explicit Euler is unstable and the zero-order-hold update is exact.
TINY_TAU = {"r_p": 1e-6, "c_p": 1.0, "r_o": 1.2e-3, "v_ocv": 4.07}
STIFF_OBSERVER = {
    "mode": "insertion-forward",
    "nominal_params": TINY_TAU,
    "faults": [{"signal": "f_iout", "onset": 0.0, "magnitude": 1.0}],
}
# Output current plus fault overflows to infinity in the measured signal.
OVERFLOWING_SENSOR = {
    "mode": "bypass",
    "i_out": 1e308,
    "sensors": ["extra_output_current"],
    "faults": [{"signal": "f_iout", "onset": 0.0, "magnitude": 1e308}],
}


@st.composite
def models(draw, max_equations: int = 8, max_unknowns: int = 6, with_faults: bool = True):
    """Random structural models: random density, injective random faults."""
    n_eq = draw(st.integers(0, max_equations))
    n_unk = draw(st.integers(0, max_unknowns))
    unknowns = tuple(f"x{j}" for j in range(1, n_unk + 1))
    incidence = {}
    for i in range(1, n_eq + 1):
        if unknowns:
            vars_ = draw(st.frozensets(st.sampled_from(unknowns)))
        else:
            vars_ = frozenset()
        incidence[f"e{i}"] = vars_
    fault_of: dict[str, str] = {}
    if with_faults and n_eq:
        chosen = draw(
            st.lists(st.sampled_from(sorted(incidence)), unique=True, max_size=n_eq)
        )
        fault_of = {eq: f"f{i}" for i, eq in enumerate(chosen, start=1)}
    return StructuralModel(
        rows=tuple((eq, vars_, fault_of.get(eq)) for eq, vars_ in incidence.items()),
        unknowns=unknowns,
    )


@st.composite
def identifiers(draw, prefix: str):
    body = draw(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4))
    return f"{prefix}{body}"


# Fault names of unequal lengths, the empty name and the two matrix marks
# included, so a column's padding and position are both exercised.
_FAULT_NAMES = st.text(alphabet="fab,1·•", max_size=6)


@st.composite
def reports(draw, max_faults: int = 10):
    """Random isolability reports: detectable faults in random cells."""
    names = draw(st.lists(_FAULT_NAMES, unique=True, max_size=max_faults))
    split = draw(st.integers(0, len(names)))
    detectable = names[:split]
    cells: dict[int, set[str]] = {}
    for fault in detectable:
        cells.setdefault(draw(st.integers(0, len(detectable) - 1)), set()).add(fault)
    return IsolabilityReport(
        frozenset(detectable), tuple(map(frozenset, cells.values())), frozenset(names[split:])
    )


def reference_partition_matrix(report: IsolabilityReport) -> IsolabilityMatrix:
    """The non-isolability matrix a report's partition induces, one comparison per pair."""
    order = tuple(sorted(report.detectable))
    cell_index = {f: i for i, cell in enumerate(report.non_isolable_partition) for f in cell}
    entries = tuple(
        tuple(cell_index[fi] == cell_index[fj] for fj in order)
        for fi in order
    )
    return IsolabilityMatrix(order, entries)


#: Hand-made reports at the edges: no fault, one fault, the empty fault
#: name (a zero column width), and names of unequal lengths.
EDGE_REPORTS = {
    "empty": IsolabilityReport(frozenset(), (), frozenset()),
    "one-fault": IsolabilityReport(frozenset({"f"}), (frozenset({"f"}),), frozenset()),
    "empty-name": IsolabilityReport(frozenset({""}), (frozenset({""}),), frozenset({"g"})),
    "unequal-names": IsolabilityReport(
        frozenset({"f", "f_vcell,12", "f_iout", "f_cell,3", "g"}),
        (frozenset({"f", "f_cell,3"}), frozenset({"f_vcell,12", "g"}), frozenset({"f_iout"})),
        frozenset({"f_vout"}),
    ),
}
