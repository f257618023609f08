"""Tests for intra-run parallel ART exploration (speculative pool).

The load-bearing property mirrors the incremental-vs-restart suite:
``jobs=N`` must be *observationally identical* to the sequential engine —
same verdicts, same precisions, same post-decision and triple-check
counters — because workers only pre-compute solver verdicts the unchanged
sequential commit loop then consumes as cache hits.
"""

import json

import pytest

from repro.core.api import Session, VerifierOptions
from repro.core.engine import VerificationEngine
from repro.core.faults import FaultPlan, FaultSpec, installed
from repro.core.parallel import PARALLEL_BACKENDS, SpeculativePool
from repro.core.predabs import ArtNode, ErrorDistanceFrontier, split_frame_predicates
from repro.lang import get_program
from repro.smt.vcgen import VcChecker

#: (program, refiner) pairs that finish fast under every engine mode; the
#: full 16-combo equivalence corpus runs in benchmarks/bench_e11_parallel.py.
FAST_CORPUS = [
    ("forward", "path-invariant"),
    ("initcheck", "path-invariant"),
    ("double_counter", "path-formula"),
    ("lock_step", "path-invariant"),
    ("simple_unsafe", "path-invariant"),
    ("diamond_safe", "path-invariant"),
]


def run_engine(name, refiner="path-invariant", jobs=1, **kwargs):
    from repro.core.refiners import make_refiner

    checker = VcChecker()
    engine = VerificationEngine(
        get_program(name),
        refiner=make_refiner(refiner, checker),
        checker=checker,
        jobs=jobs,
        **kwargs,
    )
    return engine.run()


def assert_identical(sequential, parallel):
    assert parallel.verdict == sequential.verdict
    assert parallel.precision.snapshot() == sequential.precision.snapshot()
    assert (
        parallel.engine_stats["post_decisions"]
        == sequential.engine_stats["post_decisions"]
    )
    assert (
        parallel.engine_stats["nodes_created"]
        == sequential.engine_stats["nodes_created"]
    )
    # Budget fidelity: installed speculation is charged like inline work.
    assert (
        parallel.iterations[-1].solver_stats["triple_checks"]
        == sequential.iterations[-1].solver_stats["triple_checks"]
    )


class TestParallelSequentialEquivalence:
    @pytest.mark.parametrize("name,refiner", FAST_CORPUS)
    def test_two_workers_identical(self, name, refiner):
        assert_identical(run_engine(name, refiner), run_engine(name, refiner, jobs=2))

    def test_four_workers_identical(self):
        assert_identical(run_engine("forward"), run_engine("forward", jobs=4))

    def test_error_distance_strategy_identical(self):
        # The deterministic node-id tie-break is what makes this hold: both
        # runs pop the same obligations and refine the same pivots.
        seq = run_engine("forward", strategy="error-distance")
        par = run_engine("forward", strategy="error-distance", jobs=3)
        assert_identical(seq, par)

    def test_restart_mode_identical(self):
        seq = run_engine("lock_step", incremental=False)
        par = run_engine("lock_step", incremental=False, jobs=2)
        assert par.verdict == seq.verdict
        assert par.precision.snapshot() == seq.precision.snapshot()

    def test_process_backend_identical(self):
        seq = run_engine("lock_step")
        par = run_engine("lock_step", jobs=2, parallel_backend="process")
        assert par.verdict == seq.verdict
        assert par.precision.snapshot() == seq.precision.snapshot()
        assert par.engine_stats["parallel"]["backend"] == "process"

    def test_pool_actually_speculates(self):
        result = run_engine("forward", jobs=4)
        stats = result.engine_stats["parallel"]
        assert stats["offered"] > 0
        assert stats["installed"] > 0
        assert stats["jobs"] == 4
        assert stats["shards"] >= 1
        assert stats["shard_totals"]["triple_checks"] > 0


class TestSpeculativePool:
    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            SpeculativePool(0, VcChecker())

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="backend"):
            SpeculativePool(2, VcChecker(), backend="gpu")
        assert set(PARALLEL_BACKENDS) == {"thread", "process"}

    def test_engine_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            VerificationEngine(get_program("forward"), jobs=0)
        with pytest.raises(ValueError, match="backend"):
            VerificationEngine(get_program("forward"), parallel_backend="fiber")

    def test_shutdown_is_idempotent(self):
        pool = SpeculativePool(2, VcChecker())
        pool.drain()
        pool.shutdown()
        pool.shutdown()
        assert pool.statistics()["offered"] == 0

    def test_offer_before_precision_is_a_noop(self):
        pool = SpeculativePool(2, VcChecker())
        program = get_program("forward")
        node = ArtNode(program.initial, frozenset(), node_id=0)
        pool.offer(node, program.transitions[0])
        assert pool.offered == 0
        pool.shutdown()


class TestDeterministicTieBreak:
    def test_equal_rank_pops_by_node_id(self):
        program = get_program("forward")
        frontier = ErrorDistanceFrontier(program)
        location = program.initial
        transition = next(
            t for t in program.transitions if t.source == location
        )
        # Push equal-rank obligations in scrambled node-id order; pops must
        # come back in stable node-id order, not insertion order.
        nodes = {
            node_id: ArtNode(location, frozenset(), node_id=node_id)
            for node_id in (7, 2, 9, 4)
        }
        for node_id in (7, 2, 9, 4):
            frontier.push(nodes[node_id], transition)
        popped = []
        while True:
            entry = frontier.pop()
            if entry is None:
                break
            popped.append(entry[0].node_id)
        assert popped == [2, 4, 7, 9]

    def test_same_node_keeps_push_order(self):
        # The counter stays as the final tie-break: one node's multiple
        # outgoing transitions pop in CFG declaration order.
        program = get_program("diamond_safe")
        frontier = ErrorDistanceFrontier(program)
        node = ArtNode(program.initial, frozenset(), node_id=5)
        outgoing = [t for t in program.transitions if t.source == program.initial]
        same_rank = [
            t for t in outgoing
            if frontier._distance.get(t.target)
            == frontier._distance.get(outgoing[0].target)
        ]
        for transition in same_rank:
            frontier.push(node, transition)
        popped = []
        while len(frontier):
            popped.append(frontier.pop()[1])
        assert popped == same_rank


class TestFramePredicateSplit:
    def test_matches_inline_filter(self):
        program = get_program("forward")
        transition = program.transitions[0]
        carried, undecided = split_frame_predicates(
            frozenset(), transition, []
        )
        assert carried == [] and undecided == []


class TestJobsOption:
    def test_options_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            VerifierOptions(jobs=0)
        assert VerifierOptions(jobs=3).jobs == 3

    def test_dict_round_trip(self):
        options = VerifierOptions(jobs=4, max_refinements=7)
        clone = VerifierOptions.from_dict(options.to_dict())
        assert clone == options
        assert clone.jobs == 4

    def test_options_file_round_trip(self, tmp_path):
        path = tmp_path / "opts.toml"
        path.write_text('refiner = "path-invariant"\njobs = 3\n')
        assert VerifierOptions.from_file(path).jobs == 3
        jpath = tmp_path / "opts.json"
        jpath.write_text(json.dumps(VerifierOptions(jobs=2).to_dict()))
        assert VerifierOptions.from_file(jpath).jobs == 2

    def test_cli_verify_jobs_flag(self):
        from repro.__main__ import _resolve_options, build_parser

        args = build_parser().parse_args(["verify", "forward", "--jobs", "3"])
        assert _resolve_options(args).jobs == 3

    def test_cli_jobs_flag_overrides_options_file(self, tmp_path):
        from repro.__main__ import _resolve_options, build_parser

        path = tmp_path / "opts.toml"
        path.write_text("jobs = 2\n")
        args = build_parser().parse_args(
            ["verify", "forward", "--options", str(path)]
        )
        assert _resolve_options(args).jobs == 2
        args = build_parser().parse_args(
            ["verify", "forward", "--options", str(path), "--jobs", "4"]
        )
        assert _resolve_options(args).jobs == 4

    def test_cli_batch_jobs_is_pool_width_not_engine_jobs(self):
        from repro.__main__ import _resolve_options, build_parser

        args = build_parser().parse_args(["batch", "forward", "--jobs", "2"])
        # batch --jobs sizes the task pool; engine-level jobs stays default.
        assert args.jobs == 2
        assert _resolve_options(args).jobs == 1

    def test_result_json_carries_worker_count(self):
        session = Session(VerifierOptions(jobs=2, max_refinements=8))
        result = session.run("lock_step")
        doc = result.to_json(name="lock_step")
        assert doc["engine"]["jobs"] == 2
        assert doc["engine"]["parallel"]["jobs"] == 2
        sequential = Session(VerifierOptions(max_refinements=8)).run("lock_step")
        assert sequential.to_json(name="x")["engine"]["jobs"] == 1


class TestSlowPostFault:
    def test_spec_site_and_round_trip(self):
        spec = FaultSpec(kind="slow-post", key="loop", seconds=0.01)
        assert spec.site == "post"
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        plan = FaultPlan.from_payload(FaultPlan([spec]).to_payload())
        assert plan.specs[0].kind == "slow-post"

    def test_straggling_worker_does_not_change_the_result(self):
        baseline = run_engine("lock_step")
        plan = FaultPlan(
            [FaultSpec(kind="slow-post", key="*", seconds=0.05, max_fires=3)]
        )
        with installed(plan):
            faulted = run_engine("lock_step", jobs=2)
        assert plan.fired, "the slow-post fault never fired"
        assert faulted.verdict == baseline.verdict
        assert faulted.precision.snapshot() == baseline.precision.snapshot()

    def test_slow_post_fires_in_sequential_engine_too(self):
        plan = FaultPlan(
            [FaultSpec(kind="slow-post", key="*", seconds=0.0, max_fires=1)]
        )
        with installed(plan):
            run_engine("simple_safe")
        assert plan.fired
