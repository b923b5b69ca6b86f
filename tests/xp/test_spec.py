"""ExperimentSpec: validation, canonical form, run-ID stability."""

import pytest

from repro.xp import ExperimentSpec, TOGGLES
from repro.xp.spec import SpecError


class TestValidation:
    def test_rejects_unknown_toggle(self):
        with pytest.raises(SpecError, match="unknown toggle"):
            ExperimentSpec(name="x", workload="lookup", toggles={"warp": True})

    def test_rejects_non_bool_toggle_value(self):
        with pytest.raises(SpecError, match="must be a bool"):
            ExperimentSpec(
                name="x", workload="lookup", toggles={"lookup_memo": 1}
            )

    def test_rejects_bool_seed(self):
        with pytest.raises(SpecError, match="seed must be an int"):
            ExperimentSpec(name="x", workload="lookup", seed=True)

    def test_rejects_empty_name_and_workload(self):
        with pytest.raises(SpecError):
            ExperimentSpec(name="", workload="lookup")
        with pytest.raises(SpecError):
            ExperimentSpec(name="x", workload="")

    def test_rejects_unknown_ablation_restriction(self):
        with pytest.raises(SpecError, match="unknown ablation"):
            ExperimentSpec(name="x", workload="lookup", ablations=("nope",))

    @pytest.mark.parametrize(
        "params",
        [
            {"x": float("nan")},
            {"sweep": (1.0, float("-inf"))},
            {"x": {1, 2}},
        ],
    )
    def test_rejects_params_canonical_json_cannot_carry(self, params):
        with pytest.raises(SpecError, match="params must be plain JSON"):
            ExperimentSpec(name="x", workload="lookup", params=params)

    def test_every_toggle_has_a_description(self):
        assert len(TOGGLES) >= 8
        for toggle, description in TOGGLES.items():
            assert toggle and description


class TestRunIds:
    def test_run_id_is_stable_across_sessions(self):
        # Golden value: the canonicalization (and therefore every run
        # ID ever written into an artifact) must not drift silently.
        # If this changes deliberately, bump spec.SPEC_VERSION and
        # regenerate BENCH_matrix.json.
        spec = ExperimentSpec(
            name="golden",
            workload="lookup",
            seed=3,
            toggles={"lookup_memo": True},
            params={"names": 100},
        )
        assert spec.run_id() == "xp-8cbf3bee3fa7978e"
        assert spec.run_id(ablate="lookup_memo") == "xp-bd7c1018fe19ba4e"

    def test_equal_specs_share_an_id(self):
        a = ExperimentSpec(
            name="s", workload="lookup", seed=1,
            toggles={"lookup_memo": True, "packet_cache": False},
            params={"b": 2, "a": 1},
        )
        b = ExperimentSpec(
            name="s", workload="lookup", seed=1,
            toggles={"packet_cache": False, "lookup_memo": True},
            params={"a": 1, "b": 2},
        )
        assert a.run_id() == b.run_id()
        assert a.canonical_json() == b.canonical_json()

    @pytest.mark.parametrize(
        "other",
        [
            dict(seed=2),
            dict(name="t"),
            dict(workload="routing"),
            dict(params={"names": 200}),
            dict(toggles={"lookup_memo": False}),
            dict(ablations=("lookup_memo",)),
        ],
    )
    def test_any_field_change_changes_the_id(self, other):
        base = dict(
            name="s", workload="lookup", seed=1, params={"names": 100}
        )
        changed = dict(base)
        changed.update(other)
        assert (
            ExperimentSpec(**base).run_id()
            != ExperimentSpec(**changed).run_id()
        )

    def test_ablated_ids_differ_from_baseline_and_each_other(self):
        spec = ExperimentSpec(name="s", workload="lookup")
        ids = {
            spec.run_id(),
            spec.run_id("lookup_memo"),
            spec.run_id("packet_cache"),
        }
        assert len(ids) == 3
        for value in sorted(ids):
            assert value.startswith("xp-") and len(value) == 19

    def test_ablating_a_pinned_toggle_flips_it_in_the_canonical_form(self):
        spec = ExperimentSpec(
            name="s", workload="lookup", toggles={"lookup_memo": True}
        )
        assert spec.canonical_dict("lookup_memo")["toggles"] == {
            "lookup_memo": False
        }

    def test_ablate_rejects_unknown_toggle(self):
        spec = ExperimentSpec(name="s", workload="lookup")
        with pytest.raises(SpecError, match="cannot ablate"):
            spec.run_id("warp")


class TestImmutability:
    def test_spec_is_frozen(self):
        spec = ExperimentSpec(name="s", workload="lookup")
        with pytest.raises(Exception):
            spec.seed = 9

    def test_mappings_are_copied_in(self):
        toggles = {"lookup_memo": True}
        spec = ExperimentSpec(name="s", workload="lookup", toggles=toggles)
        toggles["lookup_memo"] = False
        assert spec.toggles["lookup_memo"] is True
