import string

from hypothesis import settings, strategies as st

from switchdiag.structural import StructuralModel

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
