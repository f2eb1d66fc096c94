"""Slot-compiled plan execution (repro.mal.compiler, compile section).

The contract under test: a compiled plan is *bit-for-bit* equivalent to
the interpreter — same emissions across all three execution modes, same
recycler interaction, same errors — while resolving opcodes, folding
constants and renumbering variables exactly once at registration.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import DataCellEngine
from repro.errors import MALError
from repro.mal.compiler import compile_program, compile_stats
from repro.mal.fingerprint import cached_fingerprints, fingerprint_cache_stats
from repro.mal.interpreter import MALContext, MALInterpreter, lookup_opcode
from repro.mal.program import Const, Instruction, MALProgram, Var
from repro.streams.source import RateSource

ROWS = [(i % 4, float((i * 7) % 23)) for i in range(120)]


def run_query(rows, query, mode, compile_plans, **engine_kw):
    engine = DataCellEngine(compile_plans=compile_plans, **engine_kw)
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    q = engine.register_continuous(query, mode=mode, name="q")
    engine.attach_source("s", RateSource(rows, rate=100000))
    engine.run_until_drained()
    assert not engine.scheduler.failed, engine.scheduler.failed
    batches = [sorted(map(repr, r.to_rows()))
               for _t, r in engine.results("q").batches]
    return q.mode, batches, engine


def assert_compiled_matches_interpreted(rows, query, mode, **kw):
    m1, compiled, _ = run_query(rows, query, mode, True, **kw)
    m2, interpreted, _ = run_query(rows, query, mode, False, **kw)
    assert m1 == m2
    assert compiled == interpreted, (query, mode)
    return compiled


class TestCompiledEquivalence:
    @pytest.mark.parametrize("mode", ["reeval", "incremental"])
    def test_grouped_aggregate(self, mode):
        out = assert_compiled_matches_interpreted(
            ROWS, "SELECT k, sum(v), count(*) FROM s "
                  "[RANGE 16 SLIDE 8] GROUP BY k ORDER BY k", mode)
        assert out

    @pytest.mark.parametrize("mode", ["reeval", "incremental"])
    def test_filter_projection(self, mode):
        assert_compiled_matches_interpreted(
            ROWS, "SELECT k, v * 2 FROM s [RANGE 8 SLIDE 4] "
                  "WHERE v > 10", mode)

    @pytest.mark.parametrize("mode", ["reeval", "incremental"])
    def test_recycler_off(self, mode):
        assert_compiled_matches_interpreted(
            ROWS, "SELECT k, max(v) FROM s [RANGE 12 SLIDE 6] "
                  "GROUP BY k", mode, recycler_enabled=False)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(10, 60), st.integers(1, 6), st.integers(1, 4),
           st.sampled_from([
               "SELECT k, count(*), sum(v), min(v), max(v) FROM s "
               "[RANGE {size} SLIDE {slide}] GROUP BY k ORDER BY k",
               "SELECT k, v FROM s [RANGE {size} SLIDE {slide}] "
               "WHERE v > 0",
               "SELECT count(*), avg(v) FROM s "
               "[RANGE {size} SLIDE {slide}]",
           ]))
    def test_random_plans_agree(self, n, slide, factor, template):
        rows = [(i % 3, float((i * 5) % 17) - 4.0) for i in range(n)]
        query = template.format(size=slide * factor, slide=slide)
        for mode in ("reeval", "incremental"):
            assert_compiled_matches_interpreted(rows, query, mode)


class TestSlotRenumbering:
    def test_multi_result_instruction_slots(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous(
            "SELECT k, sum(v) FROM s [RANGE 8 SLIDE 4] GROUP BY k",
            mode="reeval", name="q")
        program = engine.scheduler.factories[0].program
        compiled = compile_program(program)
        multi = [step for step in compiled.steps
                 if step.dsts is not None]
        assert multi, "grouped plan should have a multi-result subgroup"
        assert all(len(set(step.dsts)) == len(step.dsts)
                   for step in multi)

    def test_rebinding_reuses_slot(self):
        program = MALProgram("t.rebind")
        program.append(Instruction(
            ["x"], "bat.single", [Const("int"), Const(1)]))
        program.append(Instruction(
            ["x"], "bat.single", [Const("int"), Const(2)]))
        program.append(Instruction(
            ["y"], "batcalc.add", [Var("x"), Var("x")]))
        compiled = compile_program(program)
        # both writes of x land in one slot, exactly like a dict env
        assert compiled.steps[0].dst == compiled.steps[1].dst
        assert compiled.nslots == 2
        env = {}
        MALInterpreter(MALContext(None)).run(program, env)
        assert env["y"].tolist() == [4]
        regs = [None] * compiled.nslots
        for thunk in compiled.thunks:
            thunk(MALContext(None), regs)
        assert regs[compiled.steps[2].dst].tolist() == [4]

    def test_multi_result_shape_mismatch_raises(self):
        program = MALProgram("t.badshape")
        # bat.single returns one BAT, not the 2-tuple the results ask
        program.append(Instruction(
            ["a", "b"], "bat.single", [Const("int"), Const(1)]))
        compiled = compile_program(program)
        with pytest.raises(MALError, match="expected 2 results"):
            compiled.run(MALContext(None))


class TestCompileErrors:
    def test_unknown_opcode_names_opcode_and_line(self):
        program = MALProgram("t.bad")
        program.append(Instruction(
            ["x"], "bat.single", [Const("int"), Const(1)]))
        program.append(Instruction(["y"], "nosuch.op", [Var("x")]))
        with pytest.raises(MALError) as err:
            compile_program(program)
        assert "nosuch.op" in str(err.value)
        assert "line 1" in str(err.value)

    def test_unbound_variable_names_line(self):
        program = MALProgram("t.unbound")
        program.append(Instruction(
            ["x"], "batcalc.neg", [Var("ghost")]))
        with pytest.raises(MALError) as err:
            compile_program(program)
        assert "ghost" in str(err.value)
        assert "line 0" in str(err.value)

    def test_interpreter_miss_names_opcode_and_line(self):
        program = MALProgram("t.bad")
        program.append(Instruction(["x"], "nosuch.op", []))
        with pytest.raises(MALError) as err:
            MALInterpreter(MALContext(None)).run(program)
        assert "nosuch.op" in str(err.value)
        assert "line 0" in str(err.value)

    def test_lookup_opcode_resolves_calc_once(self):
        impl = lookup_opcode("calc.abs")
        assert impl is lookup_opcode("calc.abs")

    def test_factory_falls_back_to_interpreter(self, monkeypatch):
        import repro.mal.compiler as compiler_mod

        def boom(program):
            raise MALError("no compile today")

        monkeypatch.setattr(compiler_mod, "compile_program", boom)
        before = compile_stats()["compile_fallbacks"]
        _m, batches, engine = run_query(
            ROWS, "SELECT k, sum(v) FROM s [RANGE 8 SLIDE 4] "
                  "GROUP BY k", "reeval", True)
        assert engine.scheduler.factories[0].compiled is None
        assert batches
        assert compile_stats()["compile_fallbacks"] == before + 1

    def test_fallback_fires_on_the_bare_interpreter(self, monkeypatch):
        """A plan that failed to compile runs on the oracle itself:
        recycler on, two sharers — and not one instruction lookup."""
        import repro.mal.compiler as compiler_mod

        query = ("SELECT k, sum(v) FROM s [RANGE 8 SLIDE 4] GROUP BY k "
                 "ORDER BY k")
        _m, oracle, _e = run_query(ROWS, query, "reeval", False,
                                   recycler_enabled=False)

        def boom(program):
            raise MALError("no compile today")

        monkeypatch.setattr(compiler_mod, "compile_program", boom)
        engine = DataCellEngine(recycler_enabled=True)
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        for name in ("q", "twin"):
            engine.register_continuous(query, mode="reeval", name=name)
        engine.attach_source("s", RateSource(ROWS, rate=100000))
        engine.run_until_drained()
        assert not engine.scheduler.failed, engine.scheduler.failed
        assert all(f.compiled is None
                   for f in engine.scheduler.factories)
        assert engine.recycler.hits == engine.recycler.misses == 0
        for name in ("q", "twin"):
            assert [sorted(map(repr, r.to_rows())) for _t, r
                    in engine.results(name).batches] == oracle


class TestCompileSharing:
    def test_identical_queries_share_one_compilation(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        for i in range(4):
            engine.register_continuous(
                "SELECT k, sum(v) FROM s [RANGE 8 SLIDE 4] GROUP BY k",
                mode="reeval", name=f"q{i}")
        compiled = [f.compiled for f in engine.scheduler.factories]
        assert all(c is not None for c in compiled)
        assert all(c is compiled[0] for c in compiled[1:])

    def test_output_alias_must_not_share(self):
        """Two plans equal in fingerprint but differing in emit column
        names (fingerprints exclude side-effect args) must compile to
        distinct programs — the alias lives in the resultSet/emit
        thunk."""
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous(
            "SELECT k, sum(v) AS a FROM s [RANGE 8 SLIDE 4] GROUP BY k",
            mode="reeval", name="qa")
        engine.register_continuous(
            "SELECT k, sum(v) AS b FROM s [RANGE 8 SLIDE 4] GROUP BY k",
            mode="reeval", name="qb")
        fa, fb = engine.scheduler.factories
        assert ([i and i.fp for i in cached_fingerprints(fa.program)]
                == [i and i.fp for i in cached_fingerprints(fb.program)])
        assert fa.compiled is not fb.compiled
        engine.attach_source("s", RateSource(ROWS, rate=100000))
        engine.run_until_drained()
        a = engine.results("qa").batches[-1][1]
        b = engine.results("qb").batches[-1][1]
        assert a.names != b.names
        assert a.to_rows() == b.to_rows()


class TestRecyclerUnderCompilation:
    def test_verify_mode_passes(self):
        _m, batches, engine = run_query(
            ROWS, "SELECT k, sum(v) FROM s [RANGE 16 SLIDE 4] "
                  "GROUP BY k", "reeval", True, recycler_verify=True)
        assert batches
        assert engine.recycler.hits + engine.recycler.slice_hits >= 0

    def test_shared_work_across_compiled_queries(self):
        engine = DataCellEngine(recycler_verify=True)
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        for i in range(4):
            engine.register_continuous(
                "SELECT k, sum(v) FROM s [RANGE 16 SLIDE 8] "
                "GROUP BY k", mode="reeval", name=f"q{i}")
        engine.attach_source("s", RateSource(ROWS, rate=100000))
        engine.run_until_drained()
        assert not engine.scheduler.failed, engine.scheduler.failed
        # queries 2..4 hit the intermediates query 1 published
        assert engine.recycler.hits > 0
        outs = [[sorted(map(repr, r.to_rows())) for _t, r in
                 engine.results(f"q{i}").batches] for i in range(4)]
        assert all(o == outs[0] for o in outs[1:])


class TestAmortizedFingerprints:
    def test_digest_cache_hit_on_second_use(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous(
            "SELECT k, sum(v) FROM s [RANGE 8 SLIDE 4] GROUP BY k",
            mode="reeval", name="q")
        before = fingerprint_cache_stats()["fp_cache_hits"]
        program = engine.scheduler.factories[0].program
        first = cached_fingerprints(program)
        assert fingerprint_cache_stats()["fp_cache_hits"] > before
        # mutation invalidates the memo: version is part of the key
        program.append(Instruction([], "basket.drain", [Const("s")]))
        assert len(cached_fingerprints(program)) == len(first) + 1
        assert cached_fingerprints(program)[-1] is None


class TestInterpPane:
    def test_network_stats_interp_section(self):
        _m, _b, engine = run_query(
            ROWS, "SELECT k, sum(v) FROM s [RANGE 8 SLIDE 4] "
                  "GROUP BY k", "reeval", True, interp_profile=True)
        stats = engine.network_stats()["interp"]
        assert stats["factories_compiled"] == 1
        assert stats["opcode_profile"]
        total_calls = sum(c["calls"] for c
                          in stats["opcode_profile"].values())
        assert total_calls > 0

    def test_monitor_interp_pane_renders(self):
        _m, _b, engine = run_query(
            ROWS, "SELECT k, sum(v) FROM s [RANGE 8 SLIDE 4] "
                  "GROUP BY k", "reeval", True)
        pane = engine.monitor.interp()
        assert "plan execution" in pane
        assert "autotuner" in pane


class TestConstFolding:
    """batcalc.const results consumed only by arithmetic/comparison
    kernels fold to bare scalar registers at compile time."""

    def test_folds_arithmetic_constants(self):
        before = compile_stats()["compile_const_folds"]
        out = assert_compiled_matches_interpreted(
            ROWS, "SELECT k, v * 3 + 1, v - 0.5 FROM s "
                  "[RANGE 8 SLIDE 8] WHERE v > 2", "reeval")
        after = compile_stats()["compile_const_folds"]
        assert out, "query emitted nothing"
        assert after > before

    def test_fold_preserves_comparison_semantics(self):
        assert_compiled_matches_interpreted(
            ROWS, "SELECT k FROM s [RANGE 8 SLIDE 8] "
                  "WHERE v >= 4 AND v <= 19", "reeval")

    def test_fold_with_recycler_on(self):
        assert_compiled_matches_interpreted(
            ROWS, "SELECT k, v * 2 + 7 FROM s [RANGE 8 SLIDE 8] "
                  "WHERE v > 1", "reeval", recycler_enabled=True)
