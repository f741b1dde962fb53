"""Symbol interning: global order stability and dense tables."""

from repro.automata import intern
from repro.automata.intern import SymbolTable, order_of, sort_symbols, value_key


class TestGlobalOrder:
    def test_order_is_stable_across_calls(self):
        first = sort_symbols({"b", "a", "c"})
        second = sort_symbols(["c", "a", "b", "a"])
        assert first == second
        assert len(second) == 3  # deduplicated

    def test_batch_interning_matches_repr_fallback(self):
        """A batch of fresh symbols sorts exactly as the seed's
        (qualname, repr) key did — reproducible signatures."""
        fresh = [("probe", i) for i in (3, 1, 2)]
        assert sort_symbols(fresh) == sorted(fresh, key=value_key)

    def test_interned_order_wins_over_repr_order(self):
        """Once interned, first-seen order is authoritative even where
        repr order would disagree."""
        late = ("zz_probe", "late")
        early = ("zz_probe", "solo")
        order_of(early)  # interned first → sorts first from now on
        assert sort_symbols([late, early]) == [early, late]
        assert sorted([late, early], key=value_key) == [late, early]

    def test_mixed_types_sort_without_comparisons(self):
        # ints and strings are not mutually orderable; interned ids are.
        symbols = ["x", 3, ("t", 1), "y", 7]
        once = sort_symbols(symbols)
        assert sort_symbols(reversed(symbols)) == once

    def test_order_of_interns_on_demand(self):
        before = intern.interned_count()
        order_of(("intern-probe", before))
        assert intern.interned_count() == before + 1


class TestSymbolTable:
    def test_dense_ids_cover_alphabet(self):
        table = SymbolTable(["g", "e", "f"])
        assert sorted(table.index.values()) == [0, 1, 2]
        assert len(table) == 3
        for i, symbol in enumerate(table.symbols):
            assert table.id_of(symbol) == i

    def test_table_order_matches_global_sort(self):
        alphabet = {("tbl", 2), ("tbl", 0), ("tbl", 1)}
        table = SymbolTable(alphabet)
        assert list(table.symbols) == sort_symbols(alphabet)

    def test_membership_and_iteration(self):
        table = SymbolTable(["m", "n"])
        assert "m" in table and "q" not in table
        assert set(table) == {"m", "n"}


class TestPdsIntegration:
    def test_pds_symbol_table_cached_and_invalidated(self):
        from repro.pds.pds import PDS

        pds = PDS(0)
        pds.rule(0, "a", 0, ["a", "b"])
        table = pds.symbol_table()
        assert table is pds.symbol_table()  # cached
        assert set(table) == {"a", "b"}
        pds.declare_symbol("c")
        rebuilt = pds.symbol_table()
        assert rebuilt is not table
        assert "c" in rebuilt

    def test_trigger_index_serves_actions_for(self):
        from repro.pds.pds import PDS

        pds = PDS(0)
        action = pds.rule(0, "a", 1, [])
        index = pds.trigger_index()
        assert index[(0, "a")] == (action,)
        assert pds.actions_for(0, "a") == (action,)
        assert pds.actions_for(9, "a") == ()
        # Mutation invalidates the cached index.
        extra = pds.rule(0, "a", 0, ["a"])
        assert pds.actions_for(0, "a") == (action, extra)
