"""COPIFT Step 1 tests: DFG construction and dependency typing."""

from repro.copift.dfg import DepKind, build_dfg
from repro.isa import parse


class TestFig1Example:
    """The paper's Figure 1c is the ground truth for Step 1."""

    def test_cross_thread_edges_match_paper(self, fig1b_instructions):
        dfg = build_dfg(fig1b_instructions)
        cross = {(d.src, d.dst) for d in dfg.cross_thread_deps}
        # Paper: 4->5, 12->18, 14->18 in 1-based numbering.
        assert cross == {(3, 4), (11, 17), (13, 17)}

    def test_cross_edges_are_type2(self, fig1b_instructions):
        """ki and t are statically addressed buffers -> Type 2."""
        dfg = build_dfg(fig1b_instructions)
        for dep in dfg.cross_thread_deps:
            assert dep.kind is DepKind.TYPE2

    def test_wide_load_aliases_both_word_stores(self, fig1b_instructions):
        """fld 0(a7) depends on both sw 0(a7) and sw 4(a7)."""
        dfg = build_dfg(fig1b_instructions)
        producers = {d.src for d in dfg.deps if d.dst == 17}
        assert {11, 13} <= producers

    def test_graph_is_a_dag(self, fig1b_instructions):
        """Every edge points forward and stays in range, so program
        order is a topological order: the DFG is a DAG."""
        dfg = build_dfg(fig1b_instructions)
        assert dfg.deps
        for dep in dfg.deps:
            assert 0 <= dep.src < dep.dst < len(dfg.instructions)

    def test_edges_point_forward(self, fig1b_instructions):
        dfg = build_dfg(fig1b_instructions)
        for dep in dfg.deps:
            assert dep.src < dep.dst


class TestDependencyTyping:
    def test_type1_dynamic_address(self):
        """An FP load whose base is computed in-block is Type 1."""
        program = parse("""
            slli a1, a0, 3
            add  a1, a2, a1
            fld  fa0, 0(a1)
        """)
        dfg = build_dfg(program.instructions)
        kinds = {(d.src, d.dst): d.kind for d in dfg.deps}
        assert kinds[(1, 2)] is DepKind.TYPE1

    def test_type2_static_address_through_memory(self):
        program = parse("""
            sw  a0, 0(a1)
            fld fa0, 0(a1)
        """)
        dfg = build_dfg(program.instructions)
        assert dfg.deps[-1].kind is DepKind.TYPE2

    def test_type3_register_dependency(self):
        program = parse("""
            addi a0, a0, 1
            fcvt.d.w fa0, a0
        """)
        dfg = build_dfg(program.instructions)
        assert dfg.deps[0].kind is DepKind.TYPE3

    def test_type3_comparison_to_int(self):
        program = parse("""
            flt.d a0, fa0, fa1
            addi  a1, a0, 0
        """)
        dfg = build_dfg(program.instructions)
        assert dfg.deps[0].kind is DepKind.TYPE3

    def test_same_thread_kinds(self):
        program = parse("""
            addi a0, a0, 1
            addi a1, a0, 1
            fadd.d fa0, fa1, fa2
            fmul.d fa3, fa0, fa0
        """)
        dfg = build_dfg(program.instructions)
        kinds = {d.kind for d in dfg.deps}
        assert kinds == {DepKind.INT_REG, DepKind.FP_REG}


class TestMemoryDisambiguation:
    def test_different_offsets_do_not_alias(self):
        program = parse("""
            sw a0, 0(a1)
            lw a2, 8(a1)
        """)
        dfg = build_dfg(program.instructions)
        assert not any(d.kind is DepKind.MEM for d in dfg.deps)

    def test_base_version_change_kills_alias(self):
        """After the base register is rewritten, the token differs."""
        program = parse("""
            sw   a0, 0(a1)
            addi a1, a1, 64
            lw   a2, 0(a1)
        """)
        dfg = build_dfg(program.instructions)
        mem_edges = [d for d in dfg.deps
                     if d.kind in (DepKind.MEM, DepKind.TYPE2)]
        assert not mem_edges

    def test_conservative_mode_links_all_stores(self):
        program = parse("""
            sw a0, 0(a1)
            sw a0, 0(a2)
            lw a3, 0(a4)
        """)
        dfg = build_dfg(program.instructions, conservative_memory=True)
        producers = {d.src for d in dfg.deps if d.dst == 2}
        assert producers == {0, 1}

    def test_store_after_store_last_wins(self):
        program = parse("""
            sw a0, 0(a1)
            sw a2, 0(a1)
            lw a3, 0(a1)
        """)
        dfg = build_dfg(program.instructions)
        producers = {d.src for d in dfg.deps if d.dst == 2}
        assert producers == {1}


class TestControlFlowHandling:
    def test_branches_are_isolated_nodes(self):
        program = parse("""
        loop:
            addi a0, a0, 1
            bne  a0, a1, loop
        """)
        dfg = build_dfg(program.instructions)
        assert all(1 not in (d.src, d.dst) for d in dfg.deps)
