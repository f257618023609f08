"""Tests for the incremental verification engine.

The load-bearing property is *incremental-vs-restart equivalence*: the
persistent-ART engine must reach the same verdict — and, on this corpus, the
same discovered precision — as a from-scratch rebuild after every
refinement, while strictly reusing work.  The repair wave maintains the
invariant that every node's state is exactly the Cartesian post of its
parent under the current precision, which :meth:`Art.validate` re-checks
structurally.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, VerificationTask, VerifierOptions
from repro.core import (
    Budget,
    Precision,
    Verdict,
    VerificationEngine,
    make_frontier,
    make_refiner,
)
from repro.core.predabs import ArtNode, ErrorDistanceFrontier
from repro.lang import get_program, get_source
from repro.smt.vcgen import VcChecker

#: (program, refiner) pairs that complete quickly under both engines.  The
#: path-formula refiner is excluded on array programs: it floods the
#: precision with array predicates and both engines (and the seed) take
#: minutes there.
EQUIVALENCE_CORPUS = [
    ("forward", "path-invariant"),
    ("forward", "path-formula"),
    ("initcheck", "path-invariant"),
    ("double_counter", "path-invariant"),
    ("double_counter", "path-formula"),
    ("up_down", "path-formula"),
    ("lock_step", "path-invariant"),
    ("lock_step", "path-formula"),
    ("simple_safe", "path-invariant"),
    ("simple_unsafe", "path-invariant"),
    ("simple_unsafe", "path-formula"),
    ("diamond_safe", "path-invariant"),
    ("forward_buggy", "path-invariant"),
    ("array_init_buggy", "path-invariant"),
    ("array_init_const", "path-invariant"),
    ("array_copy", "path-invariant"),
]


def run(name, **options):
    """One cold run of a built-in program under the given options."""
    return Session(VerifierOptions(**options)).run(get_program(name))


def run_both(name, refiner="path-invariant", max_refinements=4, strategy="bfs"):
    options = dict(refiner=refiner, max_refinements=max_refinements, strategy=strategy)
    incremental = run(name, incremental=True, **options)
    restart = run(name, incremental=False, **options)
    return incremental, restart


class TestIncrementalRestartEquivalence:
    @pytest.mark.parametrize("name,refiner", EQUIVALENCE_CORPUS)
    def test_verdict_and_precision_equivalence(self, name, refiner):
        incremental, restart = run_both(name, refiner)
        assert incremental.verdict == restart.verdict
        assert incremental.precision.snapshot() == restart.precision.snapshot()

    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(
            ["forward", "lock_step", "double_counter", "simple_safe", "simple_unsafe"]
        ),
        refiner=st.sampled_from(["path-invariant", "path-formula"]),
        strategy=st.sampled_from(["bfs", "dfs", "error-distance"]),
        max_refinements=st.integers(min_value=0, max_value=4),
    )
    def test_equivalence_property(self, name, refiner, strategy, max_refinements):
        incremental, restart = run_both(name, refiner, max_refinements, strategy)
        assert incremental.verdict == restart.verdict
        assert incremental.precision.snapshot() == restart.precision.snapshot()

    @pytest.mark.parametrize("name", ["forward", "initcheck", "lock_step"])
    def test_repaired_tree_validates(self, name):
        engine = VerificationEngine(get_program(name))
        result = engine.run()
        assert result.verdict == Verdict.SAFE
        assert engine.art is not None
        assert engine.art.validate(result.precision) == []

    def test_restart_mode_never_repairs(self):
        result = run("forward", incremental=False)
        assert all(record.repair is None for record in result.iterations)
        assert result.engine_stats["incremental"] is False


class TestIncrementalReuse:
    @pytest.mark.parametrize("name", ["forward", "initcheck"])
    def test_refinement_reuses_nodes(self, name):
        """Post-refinement repair must retain ART nodes instead of rebuilding."""
        result = run(name, incremental=True)
        assert result.verdict == Verdict.SAFE
        assert result.num_refinements > 0
        assert result.nodes_reused() > 0

    @pytest.mark.parametrize("name", ["forward", "initcheck"])
    def test_strictly_fewer_post_decisions_than_restart(self, name):
        incremental, restart = run_both(name, max_refinements=8)
        assert incremental.verdict == restart.verdict == Verdict.SAFE
        assert incremental.post_decisions() < restart.post_decisions()

    def test_abstract_post_memo_serves_reexpansion(self):
        """Re-deriving an identical (state, transition, predicate) triple is a hit."""
        checker = VcChecker()
        Session(checker=checker).run(get_program("lock_step"))
        stats = checker.statistics()
        assert stats["post_queries"] > 0
        # Run the same program again through the same checker: the ART-level
        # memo answers every abstract-post question without a triple check.
        # A fresh session: the first one would warm-start from its own bank.
        before = checker.statistics()
        Session(checker=checker).run(get_program("lock_step"))
        after = checker.statistics()
        new_queries = after["post_queries"] - before["post_queries"]
        new_hits = after["post_cache_hits"] - before["post_cache_hits"]
        assert new_queries > 0
        assert new_hits == new_queries


class TestBudgets:
    def test_node_budget_yields_unknown(self):
        result = run("forward", max_nodes=3)
        assert result.verdict == Verdict.UNKNOWN
        assert "node budget" in result.reason

    def test_wallclock_budget_yields_unknown(self):
        result = run("initcheck", max_seconds=0.0)
        assert result.verdict == Verdict.UNKNOWN
        assert "wall-clock" in result.reason

    def test_solver_budget_yields_unknown(self):
        result = run("forward", max_solver_calls=5)
        assert result.verdict == Verdict.UNKNOWN
        assert "solver budget" in result.reason

    def test_refinement_budget_yields_unknown(self):
        result = run("forward", refiner="path-formula", max_refinements=2)
        assert result.verdict == Verdict.UNKNOWN
        assert "budget" in result.reason

    def test_rerun_after_exhaustion(self):
        """A budget trip leaves the engine reusable: raising the budget and
        re-running the same engine (fresh tree, shared memoised checker)
        reaches the verdict."""
        engine = VerificationEngine(
            get_program("forward"), budget=Budget(max_nodes=3)
        )
        result = engine.run()
        assert result.verdict == Verdict.UNKNOWN
        engine.budget.max_nodes = 4000
        resumed = engine.run()
        assert resumed.verdict == Verdict.SAFE


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "error-distance"])
    @pytest.mark.parametrize("name", ["forward", "lock_step", "simple_unsafe"])
    def test_strategies_agree_on_verdicts(self, strategy, name):
        result = run(name, strategy=strategy)
        expected = Verdict.UNSAFE if name.endswith("unsafe") else Verdict.SAFE
        assert result.verdict == expected
        assert result.engine_stats["strategy"] == strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown exploration strategy"):
            run("forward", strategy="a-star")

    def test_frontier_instance_accepted(self):
        frontier = make_frontier("dfs", get_program("lock_step"))
        engine = VerificationEngine(get_program("lock_step"), strategy=frontier)
        assert engine.run().verdict == Verdict.SAFE


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


#: (program, refiner) pairs that finish fast; repeated runs of each must
#: agree counter for counter.
REPEAT_CORPUS = [
    ("forward", "path-invariant"),
    ("initcheck", "path-invariant"),
    ("double_counter", "path-formula"),
    ("lock_step", "path-invariant"),
    ("simple_unsafe", "path-invariant"),
    ("diamond_safe", "path-invariant"),
]


def run_fresh(name, refiner="path-invariant", **kwargs):
    """One engine run on its own checker, so no memo carries between runs."""
    checker = VcChecker()
    engine = VerificationEngine(
        get_program(name),
        refiner=make_refiner(refiner, checker),
        checker=checker,
        **kwargs,
    )
    return engine.run()


def assert_same_run(first, second):
    assert second.verdict == first.verdict
    assert second.precision.snapshot() == first.precision.snapshot()
    for counter in ("post_decisions", "nodes_created"):
        assert second.engine_stats[counter] == first.engine_stats[counter]
    assert (
        second.iterations[-1].solver_stats["triple_checks"]
        == first.iterations[-1].solver_stats["triple_checks"]
    )


class TestRepeatability:
    """The sequential loop is deterministic: the committed benchmark
    counters are only comparable across snapshots because two runs of the
    same program pop the same obligations and refine the same pivots."""

    @pytest.mark.parametrize("name,refiner", REPEAT_CORPUS)
    def test_repeated_runs_identical(self, name, refiner):
        assert_same_run(run_fresh(name, refiner), run_fresh(name, refiner))

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "error-distance"])
    def test_every_strategy_repeats(self, strategy):
        assert_same_run(
            run_fresh("forward", strategy=strategy),
            run_fresh("forward", strategy=strategy),
        )

    def test_restart_mode_repeats(self):
        assert_same_run(
            run_fresh("lock_step", incremental=False),
            run_fresh("lock_step", incremental=False),
        )


class TestOneExplorationPath:
    def test_engine_takes_no_worker_count(self):
        with pytest.raises(TypeError, match="jobs"):
            VerificationEngine(get_program("forward"), jobs=2)

    def test_result_reports_no_worker_stats(self):
        result = run_fresh("lock_step")
        assert "jobs" not in result.engine_stats
        assert "parallel" not in result.engine_stats
        engine_doc = result.to_json(name="lock_step")["engine"]
        assert "jobs" not in engine_doc and "parallel" not in engine_doc


class TestFrameRule:
    """``Art._cartesian_post`` carries a held predicate over an edge that
    writes none of its variables without asking the checker."""

    def setup_method(self):
        from repro.core.predabs import Art
        from repro.logic.formulas import ge
        from repro.logic.terms import var

        self.program = get_program("forward")
        self.art = Art(self.program, VcChecker())
        # L10 -> L5 is ``i := i + 1``: it writes i and nothing else.
        self.edge = next(
            t for t in self.program.transitions
            if (str(t.source), str(t.target)) == ("L10", "L5")
        )
        self.untouched = ge(var("n"), 0)
        self.written = ge(var("i"), 0)

    def precision_with(self, *predicates):
        precision = Precision()
        for predicate in predicates:
            precision.add(self.edge.target, predicate)
        return precision

    def test_untouched_predicate_is_carried_without_a_query(self):
        state = frozenset({self.untouched})
        post = self.art._cartesian_post(
            state, self.edge, self.precision_with(self.untouched)
        )
        assert post == state
        assert self.art.post_decisions == 0

    def test_written_predicate_is_decided(self):
        state = frozenset({self.written})
        post = self.art._cartesian_post(
            state, self.edge, self.precision_with(self.written)
        )
        # i >= 0 before i := i + 1 still gives i >= 0, but only the solver
        # may say so: the edge writes i.
        assert post == state
        assert self.art.post_decisions == 1

    def test_predicate_not_in_state_is_decided(self):
        post = self.art._cartesian_post(
            frozenset(), self.edge, self.precision_with(self.untouched)
        )
        assert post == frozenset()
        assert self.art.post_decisions == 1

    def test_empty_precision_decides_nothing(self):
        post = self.art._cartesian_post(
            frozenset({self.untouched}), self.edge, Precision()
        )
        assert post == frozenset()
        assert self.art.post_decisions == 0


class TestVerifyCompatibility:
    """Every input the session accepts besides a built-in program name."""

    def test_source_text_and_initial_precision(self):
        source = "void f(int x) { assume(x >= 1); assert(x >= 0); }"
        assert Session().run(source).verdict == Verdict.SAFE
        # A caller-supplied refiner instance and an empty seed precision.
        checker = VcChecker()
        task = VerificationTask(
            get_program("lock_step"),
            refiner=make_refiner("path-invariant", checker),
            initial_precision=Precision(),
        )
        result = Session(checker=checker).run(task)
        assert result.verdict == Verdict.SAFE
        assert result.engine_stats["session"]["seeded_predicates"] == 0

    @pytest.mark.parametrize("name,refiner", EQUIVALENCE_CORPUS)
    def test_input_forms_agree(self, name, refiner):
        """Program object, raw source text and a fully caller-built task
        (own checker, own refiner instance, empty seed) run the same CEGAR
        loop: same verdict, precision, refinements and post decisions."""
        options = VerifierOptions(refiner=refiner, max_refinements=4)
        baseline = Session(options).run(get_program(name))
        from_source = Session(options).run(get_source(name))
        checker = VcChecker()
        task = VerificationTask(
            get_program(name),
            refiner=make_refiner(refiner, checker),
            initial_precision=Precision(),
        )
        caller_built = Session(options, checker=checker).run(task)
        for other in (from_source, caller_built):
            assert other.verdict == baseline.verdict
            assert other.precision.snapshot() == baseline.precision.snapshot()
            assert other.num_refinements == baseline.num_refinements
            assert other.post_decisions() == baseline.post_decisions()


class TestBatch:
    TASKS = ["lock_step", "simple_unsafe", ("inline", "void f(int x) { assert(x == x); }")]

    def _check(self, results):
        assert [r["name"] for r in results] == ["lock_step", "simple_unsafe", "inline"]
        assert [r["verdict"] for r in results] == ["safe", "unsafe", "safe"]
        json.dumps(results)  # the whole payload must be JSON-serialisable

    def test_sequential(self):
        self._check(Session().run_many(self.TASKS, jobs=1))

    def test_process_pool(self):
        self._check(Session().run_many(self.TASKS, jobs=2))

    def test_per_task_budgets(self):
        session = Session(VerifierOptions(max_refinements=0))
        results = session.run_many(["forward"], jobs=1)
        assert results[0]["verdict"] == "unknown"

    def test_to_json_shape(self):
        payload = run("simple_unsafe").to_json()
        assert payload["verdict"] == "unsafe"
        assert payload["witness"]
        assert payload["per_iteration"][0]["counterexample_feasible"] is True
        json.dumps(payload)
