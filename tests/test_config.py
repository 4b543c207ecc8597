"""Config loading and stream/suite construction from JSON specs."""

import gc
import json
import weakref
from pathlib import Path

import pytest

from celab.config import (
    ENGINES,
    HARD_CAP,
    ConfigError,
    build_stream,
    build_suite,
    config_from_dict,
    load_config,
)
from celab.expansion import ExpansionConfig, ExpansionEngine
from celab.injury import InjuryConfig
from celab.rationals import parse_rational
from celab.streams import Direction

INC = Direction.INCREASING
DEC = Direction.DECREASING
CAP_CONFIG = Path(__file__).resolve().parent / "data" / "cap_lemma2.config.json"


def R(text):
    return parse_rational(text)


class TestRunConfig:
    def test_minimal_prop3(self):
        rc = config_from_dict({"engine": "prop3", "stages": 10})
        assert rc.engine == "prop3" and rc.stages == 10 and rc.suite_specs == []

    def test_lemma2_needs_alpha_and_eta(self):
        with pytest.raises(ConfigError):
            config_from_dict({"engine": "lemma2", "stages": 10})

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"engine": "lemma5", "stages": 10})

    @pytest.mark.parametrize("stages", [0, -3, 10_001])
    def test_stage_budget_bounds(self, stages):
        with pytest.raises(ConfigError):
            config_from_dict({"engine": "prop3", "stages": stages})

    def test_hard_cap_rejected(self):
        # a config cannot lift the stage cap: the key itself is an error
        for raw in ({"engine": "prop3", "stages": 20_000, "hard_cap": 50_000},
                    {"engine": "prop3", "stages": 10, "hard_cap": 50_000}):
            with pytest.raises(ConfigError, match="hard_cap"):
                config_from_dict(raw)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"engine": "prop3", "stages": 5}))
        assert load_config(path).stages == 5

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "ghost.json")

    def test_cap_config_is_at_the_cap(self):
        # the committed config that measurements at the stage cap run
        rc = load_config(CAP_CONFIG)
        assert rc.engine == "lemma2" and rc.stages == HARD_CAP
        assert [(e["index"], e["role"], e["kind"]) for e in rc.suite_specs] == [
            (0, "L", "constant_target"), (1, "L", "tracker"), (1, "R", "tracker")]
        engine = ExpansionEngine(ENGINES["lemma2"].build(rc))
        for _ in range(20):
            engine.step()
        assert engine.s == 20


class TestEngineTable:
    CONFIGS = {
        "lemma2": {"engine": "lemma2", "stages": 7,
                   "alpha": {"kind": "constant_target", "limit": "2/3", "rate": "1/2"},
                   "eta": {"kind": "constant_target", "limit": "1/2", "rate": "1/2"}},
        "prop3": {"engine": "prop3", "stages": 7},
    }

    def test_one_entry_per_engine(self):
        assert sorted(ENGINES) == sorted(self.CONFIGS)

    @pytest.mark.parametrize("name", ["lemma2", "prop3"])
    def test_build_then_run(self, name):
        entry = ENGINES[name]
        engine = entry.engine(entry.build(config_from_dict(self.CONFIGS[name])))
        engine.run()
        snapshot = engine.snapshot()
        assert snapshot["engine"] == name and snapshot["stage"] == 7
        assert entry.verify(engine.events, snapshot).all_green
        assert entry.replay(engine.events) == snapshot

    @pytest.mark.parametrize("name", ["lemma2", "prop3"])
    def test_engine_with_trackers_freed_without_collector(self, name):
        trackers = [{"index": 0, "role": "L", "kind": "tracker", "lag": 0, "start": "1/32"},
                    {"index": 1, "role": "R", "kind": "tracker", "lag": 1, "start": "31/32"}]
        entry = ENGINES[name]
        config = entry.build(config_from_dict(dict(self.CONFIGS[name], suite=trackers)))
        gc.disable()
        try:
            engine = entry.engine(config)
            engine.run()
            freed = weakref.ref(engine)
            del engine
            assert freed() is None
        finally:
            gc.enable()

    def test_build_types(self):
        lemma2 = ENGINES["lemma2"].build(config_from_dict(self.CONFIGS["lemma2"]))
        prop3 = ENGINES["prop3"].build(config_from_dict(self.CONFIGS["prop3"]))
        assert isinstance(lemma2, ExpansionConfig) and lemma2.stages == 7
        assert isinstance(prop3, InjuryConfig) and prop3.stages == 7


class TestBuildStream:
    def test_constant_target(self):
        st = build_stream(
            {"kind": "constant_target", "limit": "1/2", "rate": "1/2"}, INC)
        assert st.value(0) == R("1/4")
        assert st.direction is INC

    def test_bad_rational_rejected(self):
        with pytest.raises(ConfigError):
            build_stream({"kind": "constant_target", "limit": "0.5"}, INC)

    def test_missing_limit_rejected(self):
        with pytest.raises(ConfigError):
            build_stream({"kind": "constant_target"}, INC)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_stream({"kind": "wavelet"}, INC)

    def test_tracker_needs_view(self):
        with pytest.raises(ConfigError):
            build_stream({"kind": "tracker", "start": "1/8"}, INC)

    def test_omega_defaults_by_direction(self):
        up = build_stream({"kind": "omega", "machine": "pair",
                           "max_length": 8}, INC)
        down = build_stream({"kind": "omega", "machine": "pair",
                             "max_length": 8}, DEC)
        assert up.direction is INC and down.direction is DEC
        assert up.value(0) == R("1/4")   # offset before any halts
        assert down.value(0) == R("3/4")

    def test_omega_plus_geometric(self):
        spec = {"kind": "omega", "machine": "pair", "max_length": 8,
                "offset": "0/1", "scale": "1/4",
                "plus": {"limit": "1/4", "rate": "1/2"}}
        st = build_stream(spec, INC)
        base = build_stream({"kind": "omega", "machine": "pair",
                             "max_length": 8, "offset": "0/1",
                             "scale": "1/4"}, INC)
        for s in range(6):
            assert st.value(s) > base.value(s)  # the geometric part moves

    def test_omega_plus_bad_limit_rejected(self):
        # the geometric part's own parameter check, not a raw ValueError
        spec = {"kind": "omega", "machine": "pair", "max_length": 8,
                "plus": {"limit": "2/1"}}
        with pytest.raises(ConfigError, match="limit 2 not in"):
            build_stream(spec, INC)

    @pytest.mark.parametrize("spec, what", [
        ([1], "stream spec"),
        ({"kind": "omega", "machine": "pair", "max_length": 8, "plus": "1/8"}, "omega 'plus'"),
    ])
    def test_non_object_spec_rejected(self, spec, what):
        with pytest.raises(ConfigError, match=f"^{what} .* is not a JSON object$"):
            build_stream(spec, INC)

    @pytest.mark.parametrize("spec, where", [
        ({"kind": "constant_target", "limit": "1/2", "rates": "1/2"}, "stream spec"),
        ({"kind": "omega", "machine": "pair", "max_len": 8}, "stream spec"),
        ({"kind": "omega", "machine": "pair", "plus": {"limit": "1/8", "rte": "1/2"}},
         "omega 'plus'"),
    ])
    def test_unknown_key_rejected(self, spec, where):
        with pytest.raises(ConfigError, match=f"^{where}: unknown key"):
            build_stream(spec, INC)

    def test_omega_plus_rejected_for_decreasing(self):
        spec = {"kind": "omega", "machine": "pair", "max_length": 8,
                "plus": {"limit": "1/8"}}
        with pytest.raises(ConfigError):
            build_stream(spec, DEC)

    def test_oversized_omega_pool_rejected(self):
        with pytest.raises(ConfigError, match="max_length 40 gives"):
            build_stream({"kind": "omega", "machine": "silent",
                          "max_length": 40}, INC)

    def test_unknown_machine_rejected(self):
        with pytest.raises(ConfigError):
            build_stream({"kind": "omega", "machine": "ghost"}, INC)

    def test_machine_from_file(self, tmp_path):
        path = tmp_path / "m.machine"
        path.write_text("sub unit trivial\ndispatch 0 unit\n")
        st = build_stream({"kind": "omega", "machine": str(path),
                           "max_length": 4, "offset": "0/1", "scale": "1/2"}, INC)
        assert st.value(1) == R("1/4")  # the single halt "0" has weight 1/2


class TestBuildSuite:
    def test_roles_and_indices(self):
        class View:
            def difference(self, s):
                return R("0/1")

            def retain(self, lag):
                pass

        suite = build_suite([
            {"index": 0, "role": "L", "kind": "constant_target",
             "limit": "1/3", "rate": "1/2"},
            {"index": 1, "role": "R", "kind": "constant_target",
             "limit": "1/4", "rate": "1/2"},
            {"index": 2, "role": "L", "kind": "tracker", "lag": 1,
             "start": "1/8"},
        ], View())
        assert list(suite.positions) == [0, 3, 4]  # L_0, R_1, L_2

    def test_bad_entries_rejected(self):
        for bad in (
            [{"role": "L"}],
            [{"index": -1, "role": "L"}],
            [{"index": 0, "role": "Q"}],
            [{"index": 0, "role": "L", "kind": "constant_target",
              "limit": "1/3"},
             {"index": 0, "role": "L", "kind": "constant_target",
              "limit": "1/4"}],
        ):
            with pytest.raises(ConfigError):
                build_suite(bad, None)
