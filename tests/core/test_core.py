"""Tests for path programs, predicate abstraction and the CEGAR loop."""

import pytest

from repro import Session, VerifierOptions
from repro.core import (
    AbstractReachability,
    PathFormulaRefiner,
    PathInvariantRefiner,
    Precision,
    Verdict,
    analyze_counterexample,
    build_path_program,
    nested_blocks,
)
from repro.lang import Location, Program, Transition, get_program, program_from_source
from repro.lang.commands import Assign, Assume, Skip
from repro.logic.formulas import eq, ge, le, lt
from repro.logic.terms import const, var
from repro.smt.vcgen import VcChecker


# ----------------------------------------------------------------------
# Nested blocks and path-program construction (Figure 4 of the paper)
# ----------------------------------------------------------------------
def figure4_program_and_path():
    """The two-nested-loops example of Section 3 / Figure 4."""
    l0, l1, l2, err = (Location(n) for n in ("l0", "l1", "l2", "lE"))
    rho = [Assume(ge(var("x"), 0))]
    t01 = Transition(l0, tuple(rho), l1)        # rho0
    t12 = Transition(l1, (Skip(),), l2)         # rho1
    t21 = Transition(l2, (Skip(),), l1)         # rho2
    t10 = Transition(l1, (Skip(),), l0)         # rho3
    t0e = Transition(l0, (Assume(lt(var("x"), 0)),), err)  # rho4
    program = Program(
        name="figure4",
        variables=("x",),
        arrays=(),
        locations=(l0, l1, l2, err),
        initial=l0,
        error=err,
        transitions=(t01, t12, t21, t10, t0e),
    )
    path = [t01, t12, t21, t10, t01, t10, t0e]
    return program, path


class TestNestedBlocks:
    def test_figure4_blocks(self):
        program, path = figure4_program_and_path()
        locations = [path[0].source] + [t.target for t in path]
        blocks = nested_blocks(locations)
        assert len(blocks) == 2
        outer = next(b for b in blocks if len(b.locations) == 3)
        inner = next(b for b in blocks if len(b.locations) == 2)
        assert {l.name for l in outer.locations} == {"l0", "l1", "l2"}
        assert {l.name for l in inner.locations} == {"l1", "l2"}
        assert outer.end == 6
        assert inner.end == 3

    def test_no_blocks_for_loop_free_path(self):
        program, path = figure4_program_and_path()
        locations = [path[0].source, path[0].target, Location("lE")]
        assert nested_blocks(locations) == []


class TestPathProgram:
    def test_figure4_transition_count(self):
        program, path = figure4_program_and_path()
        path_program = build_path_program(program, path)
        # The paper lists 17 transitions for this example (7 path transitions,
        # 4 bridge transitions and 6 hatted block transitions).
        assert len(path_program.program.transitions) == 17

    def test_origin_mapping(self):
        program, path = figure4_program_and_path()
        path_program = build_path_program(program, path)
        origins = {path_program.origin[l].name for l in path_program.program.locations}
        assert origins == {"l0", "l1", "l2", "lE"}
        assert len(path_program.locations_of(Location("l1"))) >= 3

    def test_path_program_contains_only_path_commands(self):
        program = get_program("forward")
        reach = AbstractReachability(program, VcChecker())
        outcome = reach.run(Precision())
        path_program = build_path_program(program, outcome.counterexample)
        original_commands = {t.commands for t in path_program.path}
        for transition in path_program.program.transitions:
            assert transition.commands in original_commands or transition.commands == (Skip(),)

    def test_loops_create_hatted_copies(self):
        program = get_program("initcheck")
        checker = VcChecker()
        precision = Precision()
        reach = AbstractReachability(program, checker)
        PathInvariantRefiner(checker).refine(
            program, reach.run(precision).counterexample, precision
        )
        path = reach.run(precision).counterexample
        path_program = build_path_program(program, path)
        assert any(l.name.endswith("^") for l in path_program.program.locations)
        assert path_program.program.loop_heads()


class TestPrecisionAndReachability:
    def test_precision_add_and_dedupe(self):
        precision = Precision()
        location = Location("L1")
        assert precision.add(location, le(var("x"), 1))
        assert not precision.add(location, le(var("x"), 1))
        assert precision.total_predicates() == 1

    def test_reachability_finds_error_without_predicates(self):
        program = get_program("simple_unsafe")
        outcome = AbstractReachability(program, VcChecker()).run(Precision())
        assert outcome.counterexample is not None

    def test_reachability_proves_with_predicates(self):
        program = get_program("simple_safe")
        precision = Precision()
        # y >= 1 at the location before the assertion
        for transition in program.incoming(program.error):
            precision.add(transition.source, ge(var("y"), 1))
        outcome = AbstractReachability(program, VcChecker()).run(precision)
        assert outcome.is_safe

    def test_counterexample_analysis_feasible(self):
        program = get_program("simple_unsafe")
        outcome = AbstractReachability(program, VcChecker()).run(Precision())
        analysis = analyze_counterexample(outcome.counterexample)
        assert analysis.feasible
        assert analysis.model is not None

    def test_counterexample_analysis_spurious(self):
        program = get_program("forward")
        outcome = AbstractReachability(program, VcChecker()).run(Precision())
        assert not analyze_counterexample(outcome.counterexample).feasible


class TestRefiners:
    def test_path_formula_refiner_adds_constants(self):
        program = get_program("forward")
        outcome = AbstractReachability(program, VcChecker()).run(Precision())
        precision = Precision()
        result = PathFormulaRefiner().refine(program, outcome.counterexample, precision)
        assert result.progress
        predicates = {
            str(p) for loc in precision.locations() for p in precision.predicates_at(loc)
        }
        assert "i = 0" in predicates or "i - 0 = 0" in predicates or "i = 0".replace(" ", "") in {
            p.replace(" ", "") for p in predicates
        }

    def test_path_invariant_refiner_progress(self):
        program = get_program("forward")
        checker = VcChecker()
        precision = Precision()
        outcome = AbstractReachability(program, checker).run(precision)
        result = PathInvariantRefiner(checker).refine(program, outcome.counterexample, precision)
        assert result.progress
        assert result.path_program is not None


class TestVerify:
    """End-to-end CEGAR runs on the fast members of the suite."""

    def test_simple_safe(self):
        assert Session().run(get_program("simple_safe")).verdict == Verdict.SAFE

    def test_simple_unsafe(self):
        result = Session().run(get_program("simple_unsafe"))
        assert result.verdict == Verdict.UNSAFE
        assert result.counterexample is not None

    def test_diamond_safe(self):
        assert Session().run(get_program("diamond_safe")).verdict == Verdict.SAFE

    def test_verify_from_source(self):
        source = "void f(int x) { assume(x >= 2); assert(x >= 1); }"
        assert Session().run(source).verdict == Verdict.SAFE

    def test_unknown_refiner_rejected(self):
        with pytest.raises(ValueError):
            VerifierOptions(refiner="no-such-refiner")

    @pytest.mark.slow
    def test_forward_is_proved_with_path_invariants(self):
        result = Session(VerifierOptions(max_refinements=4)).run(get_program("forward"))
        assert result.verdict == Verdict.SAFE

    @pytest.mark.slow
    def test_forward_baseline_keeps_unrolling(self):
        options = VerifierOptions(refiner="path-formula", max_refinements=4)
        result = Session(options).run(get_program("forward"))
        assert result.verdict == Verdict.UNKNOWN
        lengths = [r.counterexample_length for r in result.iterations if r.counterexample_length]
        assert lengths[-1] > lengths[0]

    @pytest.mark.slow
    def test_lock_step(self):
        result = Session(VerifierOptions(max_refinements=4)).run(get_program("lock_step"))
        assert result.verdict == Verdict.SAFE

    @pytest.mark.slow
    def test_array_init_buggy_is_unsafe(self):
        options = VerifierOptions(max_refinements=4)
        result = Session(options).run(get_program("array_init_buggy"))
        assert result.verdict == Verdict.UNSAFE
