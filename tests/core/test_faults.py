"""The deterministic fault-injection harness (:mod:`repro.core.faults`).

These tests pin the properties every robustness test in the suite leans on:
the harness is inert unless installed, plans match deterministically (first
spec wins, keyed by site/key/attempt), probabilistic gates are a pure
function of the seed, and plans survive the JSON round trip that ships them
into pool workers.
"""

import pickle

import pytest

from repro.core import faults
from repro.core.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedError,
    InjectedHang,
    installed,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="gamma-ray")

    def test_validation_bounds(self):
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec(kind="slow", seconds=-1)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="crash", probability=1.5)
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(kind="crash", max_fires=0)

    def test_every_kind_has_a_site(self):
        for kind in FAULT_KINDS:
            assert FaultSpec(kind=kind).site in (
                "task", "store-load", "serve-response",
                "client-send", "journal-append",
            )

    def test_kinds_are_exactly_the_site_kinds(self):
        # The abstract-post oracle carries no fault hook: no "post" site,
        # and no kind outside the sites that remain.
        assert "post" not in faults.FAULT_SITES
        site_kinds = [k for kinds in faults.FAULT_SITES.values() for k in kinds]
        assert sorted(site_kinds) == sorted(FAULT_KINDS)

    def test_dict_round_trip(self):
        spec = FaultSpec(kind="hang", key="forward", attempts=(0, 2), seconds=9.0)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlan:
    def test_match_is_keyed_by_site_key_and_attempt(self):
        plan = FaultPlan([FaultSpec(kind="crash", key="forward", attempts=(0,))])
        assert plan.match("task", ("forward",), 0) is not None
        assert plan.match("task", ("forward",), 1) is None  # wrong attempt
        assert plan.match("task", ("lock_step",), 0) is None  # wrong key
        assert plan.match("store-load", ("forward",), 0) is None  # wrong site

    def test_empty_attempts_means_every_attempt(self):
        plan = FaultPlan([FaultSpec(kind="error", key="x", attempts=())])
        for attempt in range(5):
            assert plan.match("task", ("x",), attempt) is not None

    def test_first_matching_spec_wins(self):
        plan = FaultPlan([
            FaultSpec(kind="crash", key="forward"),
            FaultSpec(kind="error", key="*", attempts=()),
        ])
        assert plan.match("task", ("forward",), 0).kind == "crash"
        assert plan.match("task", ("other",), 0).kind == "error"

    def test_max_fires_bounds_firing(self):
        plan = FaultPlan([FaultSpec(kind="error", attempts=(), max_fires=2)])
        hits = [plan.match("task", ("t",), n) is not None for n in range(4)]
        assert hits == [True, True, False, False]

    def test_probability_gate_is_deterministic_in_the_seed(self):
        spec = FaultSpec(kind="error", key="*", attempts=(), probability=0.5)
        outcome_a = [
            FaultPlan([spec], seed=42).match("task", (f"t{n}",), 0) is not None
            for n in range(32)
        ]
        outcome_b = [
            FaultPlan([spec], seed=42).match("task", (f"t{n}",), 0) is not None
            for n in range(32)
        ]
        assert outcome_a == outcome_b  # same seed: identical schedule
        assert any(outcome_a) and not all(outcome_a)  # the gate actually gates
        outcome_c = [
            FaultPlan([spec], seed=43).match("task", (f"t{n}",), 0) is not None
            for n in range(32)
        ]
        assert outcome_a != outcome_c  # a different seed reshuffles it

    def test_payload_round_trip_is_json_safe(self):
        import json

        plan = FaultPlan(
            [FaultSpec(kind="crash", key="a"), FaultSpec(kind="slow", seconds=0.1)],
            seed=7,
        )
        payload = json.loads(json.dumps(plan.to_payload()))
        restored = FaultPlan.from_payload(payload)
        assert restored.specs == plan.specs
        assert restored.seed == plan.seed

    def test_fired_records_the_schedule(self):
        plan = FaultPlan([FaultSpec(kind="error", key="x")])
        plan.match("task", ("x",), 0)
        assert plan.fired == [(0, "task", "x", 0)]


class TestInstallation:
    def test_inert_by_default(self):
        assert faults.active_plan() is None
        assert faults.fire("task", ("anything",), 0) is None  # no-op

    def test_installed_restores_previous_plan(self):
        outer = FaultPlan([FaultSpec(kind="error", key="outer")])
        inner = FaultPlan([FaultSpec(kind="error", key="inner")])
        with installed(outer):
            assert faults.active_plan() is outer
            with installed(inner):
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_installed_uninstalls_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with installed(FaultPlan()):
                raise RuntimeError("boom")
        assert faults.active_plan() is None


class TestFiring:
    def test_crash_raises_in_process(self):
        with installed(FaultPlan([FaultSpec(kind="crash", key="t")])):
            with pytest.raises(InjectedCrash):
                faults.fire("task", ("t",), 0, in_worker=False)

    def test_hang_raises_in_process(self):
        with installed(FaultPlan([FaultSpec(kind="hang", key="t")])):
            with pytest.raises(InjectedHang):
                faults.fire("task", ("t",), 0, in_worker=False)

    def test_error_raises(self):
        with installed(FaultPlan([FaultSpec(kind="error", key="t")])):
            with pytest.raises(InjectedError):
                faults.fire("task", ("t",), 0)

    def test_store_faults_are_returned_not_raised(self):
        plan = FaultPlan([FaultSpec(kind="corrupt-store", key="bank.pkl")])
        with installed(plan):
            spec = faults.fire("store-load", ("/x/bank.pkl", "bank.pkl"), 0)
        assert spec is not None and spec.kind == "corrupt-store"

    def test_corrupt_file_truncates(self, tmp_path):
        path = tmp_path / "victim.pkl"
        path.write_bytes(pickle.dumps({"a": list(range(1000))}))
        original = path.stat().st_size
        new_size = faults.corrupt_file(path)
        assert 0 < new_size < original
        with pytest.raises(Exception):
            pickle.loads(path.read_bytes())
