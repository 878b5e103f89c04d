import json
import re

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
        model = StructuralModel((("e2", {"y", "x"}, None), ("e1", set(), None)), ("y", "x"))
        data = structural_model_to_dict(model)
        assert [e["id"] for e in data["equations"]] == ["e1", "e2"]
        assert data["equations"][1]["unknowns"] == ["x", "y"]
        assert data["unknowns"] == ["x", "y"]

    def test_json_is_stable_bytes(self):
        model = StructuralModel((("e1", {"x"}, None),), ("x",))
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
        model = StructuralModel(
            (("e1", {"x"}, None), ("e2", {"x"}, None), ("e3", {"y", "z"}, None),
             ("e4", {"w"}, None)),
            ("w", "x", "y", "z"),
        )
        data = decomposition_to_dict(dm_decompose(model))
        assert data["over"] == {"equations": ["e1", "e2"], "unknowns": ["x"]}
        assert data["under"] == {"equations": ["e3"], "unknowns": ["y", "z"]}
        assert data["just"] == {"equations": ["e4"], "unknowns": ["w"]}
        assert data["fine_blocks"] == [["e1", "e2"]]

    def test_dot_output_contains_clusters_and_edges(self):
        model = StructuralModel((("e1", {"x"}, None), ("e2", {"x"}, None)), ("x",))
        dot = decomposition_to_dot(model, dm_decompose(model))
        assert dot.startswith("graph dm {")
        assert "cluster_over" in dot
        assert '"e1" -- "x";' in dot

    def test_dot_escapes_backslashes_and_quotes(self):
        names = {"e1\\": "x\\", 'e"2': 'y"', 'e\\"3': 'z\\"'}
        model = StructuralModel(
            tuple((eq, {x}, None) for eq, x in names.items()), tuple(names.values())
        )
        dot = decomposition_to_dot(model, dm_decompose(model))
        quoted = r'"((?:[^"\\]|\\.)*)"'

        def unescape(text: str) -> str:
            return re.sub(r"\\(.)", r"\1", text)

        nodes = {
            unescape(m[1]): m[2]
            for m in re.finditer(rf"^\s*{quoted} \[shape=(box|ellipse)\];$", dot, re.M)
        }
        edges = {
            (unescape(m[1]), unescape(m[2]))
            for m in re.finditer(rf"^\s*{quoted} -- {quoted};$", dot, re.M)
        }
        assert nodes == {**dict.fromkeys(names, "box"), **dict.fromkeys(names.values(), "ellipse")}
        assert edges == set(names.items())
