import json

import pytest
from hypothesis import given

from switchdiag.bimmc import FAULT_AGGREGATION, build_catalogue, generate
from switchdiag.errors import InputError
from switchdiag.modelio import (
    decomposition_to_dict,
    decomposition_to_dot,
    structural_model_from_dict,
    structural_model_to_dict,
    switched_model_from_dict,
    switched_model_to_dict,
)
from switchdiag.structural import StructuralModel, dm_decompose
from switchdiag.switched import Configuration, instantiate

from .conftest import models


class TestStructuralModelJson:
    @given(models())
    def test_round_trip_preserves_content(self, model):
        data = structural_model_to_dict(model)
        loaded = structural_model_from_dict(data)
        assert set(loaded.equations) == set(model.equations)
        assert set(loaded.unknowns) == set(model.unknowns)
        assert loaded.incidence == model.incidence
        assert loaded.fault_map == model.fault_map

    def test_serialized_form_is_canonically_ordered(self):
        model = StructuralModel(
            ("e2", "e1"), ("y", "x"), {"e2": frozenset({"y", "x"}), "e1": frozenset()}
        )
        data = structural_model_to_dict(model)
        assert [e["id"] for e in data["equations"]] == ["e1", "e2"]
        assert data["equations"][1]["unknowns"] == ["x", "y"]
        assert data["unknowns"] == ["x", "y"]

    def test_json_is_stable_bytes(self):
        model = StructuralModel(("e1",), ("x",), {"e1": frozenset({"x"})})
        once = json.dumps(structural_model_to_dict(model))
        again = json.dumps(structural_model_to_dict(model))
        assert once == again

    def test_missing_field_rejected(self):
        with pytest.raises(InputError, match="unknowns"):
            structural_model_from_dict({"equations": []})


class TestSwitchedModelJson:
    @pytest.mark.parametrize("setup", ["I", "IV"])
    def test_round_trip_reproduces_instantiations(self, setup):
        switched, catalogue = generate(2, setup)
        data = switched_model_to_dict(switched, FAULT_AGGREGATION)
        loaded, pattern = switched_model_from_dict(json.loads(json.dumps(data)))
        config = Configuration(("forward", "bypass1"))
        assert instantiate(loaded, config) == instantiate(switched, config)
        assert build_catalogue(loaded, pattern) == catalogue

    def test_mode_dependent_equations_serialize_variants(self):
        switched, _ = generate(1, "I")
        data = switched_model_to_dict(switched)
        by_id = {e["id"]: e for e in data["template"]["equations"]}
        assert "variants" in by_id["e9"]
        assert "unknowns" in by_id["e1"]
        assert by_id["e9"]["variants"]["bypass1"] == ["v_sm"]


class TestDecompositionExport:
    def test_six_sets_and_fine_blocks(self):
        model = StructuralModel.from_incidence(
            {"e1": {"x"}, "e2": {"x"}, "e3": {"y", "z"}, "e4": {"w"}}
        )
        data = decomposition_to_dict(dm_decompose(model))
        assert data["over"] == {"equations": ["e1", "e2"], "unknowns": ["x"]}
        assert data["under"] == {"equations": ["e3"], "unknowns": ["y", "z"]}
        assert data["just"] == {"equations": ["e4"], "unknowns": ["w"]}
        assert data["fine_blocks"] == [["e1", "e2"]]

    def test_dot_output_contains_clusters_and_edges(self):
        model = StructuralModel.from_incidence({"e1": {"x"}, "e2": {"x"}})
        dot = decomposition_to_dot(model, dm_decompose(model))
        assert dot.startswith("graph dm {")
        assert "cluster_over" in dot
        assert '"e1" -- "x";' in dot
