"""Tests for the unified request model (repro.api.request)."""

import json

import pytest

import repro
from repro.api import SparsifyRequest
from repro.core.config import SparsifierConfig
from repro.exceptions import RequestError
from repro.graphs.generators import path_graph


class TestValidation:
    def test_defaults_are_valid(self):
        request = SparsifyRequest()
        assert request.method == "koutis"
        assert request.epsilon is None
        assert request.rho == 4.0
        assert request.options == {}

    def test_rejects_empty_method(self):
        with pytest.raises(RequestError):
            SparsifyRequest(method="")

    def test_rejects_non_string_method(self):
        with pytest.raises(RequestError):
            SparsifyRequest(method=3)

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5, "half"])
    def test_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(RequestError):
            SparsifyRequest(epsilon=epsilon)

    def test_rejects_bad_rho(self):
        with pytest.raises(RequestError):
            SparsifyRequest(rho=0.5)

    def test_rejects_non_config(self):
        with pytest.raises(RequestError):
            SparsifyRequest(config={"epsilon": 0.5})

    def test_rejects_non_integer_seed(self):
        with pytest.raises(RequestError):
            SparsifyRequest(seed="entropy")
        with pytest.raises(RequestError):
            SparsifyRequest(seed=True)

    def test_rejects_negative_seed(self):
        with pytest.raises(RequestError, match="non-negative"):
            SparsifyRequest(seed=-1)
        # Refused before any method runs, not as NumPy's bare ValueError.
        for method in ("koutis", "streaming"):
            with pytest.raises(RequestError, match="non-negative"):
                repro.sparsify(path_graph(6), method=method, seed=-1)

    def test_rejects_non_string_option_keys(self):
        with pytest.raises(RequestError):
            SparsifyRequest(options={1: "x"})

    def test_is_immutable(self):
        request = SparsifyRequest(seed=1)
        with pytest.raises(Exception):
            request.seed = 2

    def test_options_are_copied(self):
        payload = {"probability": 0.5}
        request = SparsifyRequest(options=payload)
        payload["probability"] = 0.9
        assert request.options == {"probability": 0.5}

    def test_unknown_method_allowed_at_construction(self):
        # Existence is checked when the engine resolves the request, so
        # building a request never imports the method runners.
        request = SparsifyRequest(method="not-yet-registered")
        assert request.method == "not-yet-registered"


class TestWithOverrides:
    def test_with_overrides(self):
        request = SparsifyRequest(seed=1).with_overrides(seed=2, method="uniform")
        assert request.seed == 2
        assert request.method == "uniform"


class TestRoundTrip:
    def test_exact_round_trip_defaults(self):
        request = SparsifyRequest()
        assert SparsifyRequest.from_dict(request.to_dict()) == request

    def test_exact_round_trip_full(self):
        request = SparsifyRequest(
            method="koutis-distributed",
            epsilon=0.25,
            rho=8.0,
            config=SparsifierConfig(bundle_t=3, backend="thread", max_workers=2),
            seed=123,
            certify=True,
            options={"stop_on_degenerate": False},
        )
        assert SparsifyRequest.from_dict(request.to_dict()) == request

    def test_round_trip_through_json_text(self):
        request = SparsifyRequest(
            method="uniform", epsilon=0.5, seed=7, options={"probability": 0.3}
        )
        text = json.dumps(request.to_dict())
        assert SparsifyRequest.from_dict(json.loads(text)) == request

    def test_from_dict_accepts_partial(self):
        request = SparsifyRequest.from_dict({"method": "uniform", "seed": 1})
        assert request.method == "uniform"
        assert request.rho == 4.0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(RequestError, match="sharls"):
            SparsifyRequest.from_dict({"method": "koutis", "sharls": 4})
        # Execution settings live under "config" alone.
        for key, value in [("backend", "thread"), ("max_workers", 2)]:
            with pytest.raises(RequestError, match=f"unknown SparsifyRequest key.*{key}"):
                SparsifyRequest.from_dict({key: value})

    def test_from_dict_rejects_bad_config_payload(self):
        with pytest.raises(RequestError):
            SparsifyRequest.from_dict({"config": {"no_such_knob": 1}})
        # Retired fields are refused even at their old defaults.
        for key, value in [("bundle_constant", 24.0), ("practical_scale", 0.5), ("min_edges_to_sparsify", 1)]:
            with pytest.raises(RequestError, match=key):
                SparsifyRequest.from_dict({"method": "koutis", "config": {key: value}})

    def test_from_dict_refuses_the_retired_shard_count(self):
        # Even the old default is refused: no rule drops the retired key.
        for value in (1, 4):
            with pytest.raises(RequestError, match="num_shards"):
                SparsifyRequest.from_dict({"method": "koutis", "config": {"num_shards": value}})

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(RequestError):
            SparsifyRequest.from_dict(["koutis"])
