import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connsys import (
    BranchDecomposition,
    ConnectivitySystem,
    LinearOrdering,
    branch_width,
    chain_to_decomposition,
    decomposition_width,
    duality_audit,
    linear_width,
    ordering_width,
)
from connsys.decomposition import WIDTH_MAX_N
from connsys.errors import (
    GroundSetTooLargeForExhaustiveSearch,
    MalformedTree,
    NotAPermutation,
    NotASequenceChain,
    NotSingleElement,
)

from .conftest import dense_vertex_cut
from .oracles import oracle_branch_trees, oracle_branch_width, oracle_linear_width, oracle_tree_width


def double_factorial_odd(n):
    out = 1
    for x in range(1, n + 1, 2):
        out *= x
    return out


@st.composite
def cut_systems(draw, max_n=7):
    """A vertex-cut or edge-cut system of a random graph, over at most max_n elements."""
    if draw(st.booleans()):
        nv = draw(st.integers(1, max_n))
        pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return ConnectivitySystem.from_vertex_cut([str(i) for i in range(nv)], nv, edges)
    nv = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=max_n, unique=True))
    return ConnectivitySystem.from_edge_cut([f"e{i}" for i in range(len(edges))], nv, sorted(edges))


def cardinality_system():
    table = {m: min(bin(m).count("1"), 4 - bin(m).count("1")) for m in range(16)}
    return ConnectivitySystem.from_table(["a", "b", "c", "d"], table)


class TestTreeEnumeration:
    def test_counts_match_double_factorial(self):
        for n in range(3, 8):
            count = len(oracle_branch_trees(n))
            assert count == double_factorial_odd(2 * n - 5)

    def test_trees_are_pairwise_distinct(self):
        def canonical(edges, n):
            d = BranchDecomposition(n, edges, tuple(range(n)))
            full = (1 << n) - 1
            return frozenset(min(m, full ^ m) for m in d.edge_sides())

        for n in (4, 5, 6):
            seen = set()
            for edges in oracle_branch_trees(n):
                key = canonical(edges, n)
                assert key not in seen
                seen.add(key)

    def test_every_tree_validates(self):
        for edges in oracle_branch_trees(5):
            BranchDecomposition(5, edges, tuple(range(5))).validate()


class TestDecompositionWidth:
    def test_pair_split_on_cardinality_function(self):
        sys = cardinality_system()
        tree = BranchDecomposition(4, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)), (0, 1, 2, 3))
        assert decomposition_width(sys, tree) == 2

    def test_single_element_tree(self, trivial1):
        assert decomposition_width(trivial1, BranchDecomposition(1, (), (0,))) == 0

    def test_adjacent_pairing_on_cycle(self, c4_edge):
        tree = BranchDecomposition(4, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)), (0, 1, 2, 3))
        assert decomposition_width(c4_edge, tree) == 2

    def test_malformed_trees_rejected(self, c4_edge):
        with pytest.raises(MalformedTree):
            decomposition_width(c4_edge, BranchDecomposition(4, ((0, 1), (1, 2), (2, 3)), (0, 1, 2, 3)))
        with pytest.raises(MalformedTree):
            decomposition_width(
                c4_edge, BranchDecomposition(4, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 4)), (0, 1, 2, 3))
            )

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            # a triangle of internal nodes beside a star: degrees and edge count fit, the graph is not a tree
            (6, ((6, 7), (7, 8), (6, 8), (0, 6), (1, 7), (2, 8), (3, 9), (4, 9), (5, 9)), "edges contain a cycle"),
            (6, ((6, 7), (6, 7), (0, 6), (1, 7), (2, 8), (3, 8), (8, 9), (4, 9), (5, 9)), "edges contain a cycle"),
            (4, ((0, 4), (1, 4), (2, 5), (3, 5)), "expected 5 edges, got 4"),
            (4, ((0, 4), (0, 5), (1, 4), (2, 5), (3, 5)), "leaf node 0 has degree 2"),
            (4, ((0, 4), (1, 5), (4, 5), (2, 5), (3, 5)), "internal node 4 has degree 2"),
            (4, ((0, 4), (1, 4), (4, 6), (2, 6), (3, 6)), "edges must span nodes 0..2n-3 exactly"),
            (2, ((0, 1), (0, 1)), "expected 1 edges, got 2"),
            (1, ((0, 0),), "a single-element decomposition has no edges"),
        ],
        ids=["cycle", "duplicate-edge", "forest", "leaf-degree-2", "internal-degree-2", "missing-node", "n2", "n1"],
    )
    def test_malformed_tree_messages(self, n, edges, message):
        with pytest.raises(MalformedTree) as exc:
            BranchDecomposition(n, edges, tuple(range(n))).validate()
        assert str(exc.value) == message


class TestBranchWidth:
    def test_cardinality_example(self):
        result = branch_width(cardinality_system())
        assert result.width == 2

    def test_c4(self, c4_edge):
        result = branch_width(c4_edge)
        assert result.width == 2
        assert decomposition_width(c4_edge, result.certificate) == 2

    def test_k4(self, k4_edge):
        result = branch_width(k4_edge)
        assert result.width == 3
        assert decomposition_width(k4_edge, result.certificate) == 3

    def test_small_conventions(self, trivial1):
        assert branch_width(trivial1).width == 0
        sys2 = ConnectivitySystem.from_table(["a", "b"], {0: 0, 1: 1, 2: 1, 3: 0})
        assert branch_width(sys2).width == 1

    def test_matches_bipartition_oracle(self, c4_edge, k4_edge, c4_vertex):
        for sys in (c4_edge, k4_edge, c4_vertex, cardinality_system()):
            assert branch_width(sys).width == oracle_branch_width(sys.array.tolist(), sys.n)

    def test_relabeling_equivariance(self, c4_edge):
        # rotate the cycle's edge labels; the width must not move
        perm = [1, 2, 3, 0]
        table = {}
        for mask in range(16):
            image = 0
            for i in range(4):
                if mask >> i & 1:
                    image |= 1 << perm[i]
            table[image] = c4_edge.f(mask)
        rotated = ConnectivitySystem.from_table(["e1", "e2", "e3", "e4"], table)
        assert branch_width(rotated).width == branch_width(c4_edge).width

    @settings(max_examples=40, deadline=None)
    @given(cut_systems())
    def test_matches_minimum_over_all_trees(self, sys):
        trees = oracle_branch_trees(sys.n)
        best = min(oracle_tree_width(sys.array.tolist(), sys.n, edges) for edges in trees)
        result = branch_width(sys)
        assert result.width == best
        assert decomposition_width(sys, result.certificate) == best

    def test_size_gate(self):
        n = WIDTH_MAX_N + 1
        edges = [(i, i + 1) for i in range(n - 1)]
        sys = ConnectivitySystem.from_vertex_cut([str(i) for i in range(n)], n, edges)
        with pytest.raises(GroundSetTooLargeForExhaustiveSearch):
            branch_width(sys)

    def test_memoised_result_keeps_the_gate(self, monkeypatch):
        from connsys import decomposition

        monkeypatch.setattr(decomposition, "WIDTH_MAX_N", 4)  # a gate below this 5-element path
        monkeypatch.setenv("CONNSYS_MAX_N", "5")
        edges = [(i, i + 1) for i in range(4)]
        sys = ConnectivitySystem.from_vertex_cut([str(i) for i in range(5)], 5, edges)
        first = branch_width(sys)
        monkeypatch.delenv("CONNSYS_MAX_N")
        with pytest.raises(GroundSetTooLargeForExhaustiveSearch, match="gated to n <= 4$"):
            branch_width(sys)
        monkeypatch.setenv("CONNSYS_MAX_N", "5")
        assert branch_width(sys) is first

    @pytest.mark.parametrize("width", [branch_width, linear_width])
    def test_result_is_memoised(self, width):
        edges = [(i, i + 1) for i in range(4)]
        sys = ConnectivitySystem.from_vertex_cut([str(i) for i in range(5)], 5, edges)
        first = width(sys)
        assert width(sys) is first and first.width == 2
        # the memo takes no part in equality or hashing
        twin = ConnectivitySystem.from_vertex_cut([str(i) for i in range(5)], 5, edges)
        assert twin == sys and hash(twin) == hash(sys)


class TestLinearWidth:
    def test_c4(self, c4_edge):
        result = linear_width(c4_edge)
        assert result.width == 2
        assert ordering_width(c4_edge, result.certificate) == 2

    def test_trivial_cases(self, trivial1, trivial2):
        assert linear_width(trivial1).width == 0
        assert linear_width(trivial2).width == 0

    def test_at_least_branch_width(self, c4_edge, k4_edge, c4_vertex):
        for sys in (c4_edge, k4_edge, c4_vertex):
            assert branch_width(sys).width <= linear_width(sys).width

    @settings(max_examples=40, deadline=None)
    @given(cut_systems())
    def test_exact_against_full_scan(self, k4_edge, drawn):
        # the certificate is the first optimal permutation in lexicographic order
        for sys in (k4_edge, drawn):
            perms = list(permutations(range(sys.n)))
            widths = [ordering_width(sys, LinearOrdering(p)) for p in perms]
            best = min(widths)
            result = linear_width(sys)
            assert result.width == best
            assert result.certificate.order == perms[widths.index(best)]

    def test_matches_the_oracle(self, exhaustive_systems, seeded_cuts_9_to_12):
        for sys in [*exhaustive_systems[4], *exhaustive_systems[5], *seeded_cuts_9_to_12]:
            result = linear_width(sys)
            assert (result.width, result.certificate.order) == oracle_linear_width(sys.array.tolist(), sys.n)

    def test_matches_the_oracle_past_the_branch_width_gate(self, monkeypatch):
        monkeypatch.delenv("CONNSYS_MAX_N", raising=False)
        sys = dense_vertex_cut(WIDTH_MAX_N + 1)
        result = linear_width(sys)
        assert (result.width, result.certificate.order) == oracle_linear_width(sys.array.tolist(), sys.n)
        with pytest.raises(GroundSetTooLargeForExhaustiveSearch):
            branch_width(sys)

    def test_answers_at_the_ground_set_cap(self, monkeypatch):
        monkeypatch.delenv("CONNSYS_MAX_N", raising=False)
        sys = dense_vertex_cut(20)
        started = time.perf_counter()
        result = linear_width(sys)
        assert time.perf_counter() - started < 1.0
        assert ordering_width(sys, result.certificate) == result.width


class TestOrderingWidth:
    def test_opposite_pair_prefix(self, c4_edge):
        assert ordering_width(c4_edge, LinearOrdering((0, 2, 1, 3))) == 4

    def test_cyclic_order(self, c4_edge):
        assert ordering_width(c4_edge, LinearOrdering((0, 1, 2, 3))) == 2

    def test_single_element(self, trivial1):
        assert ordering_width(trivial1, LinearOrdering((0,))) == 0

    def test_not_a_permutation(self, c4_edge):
        with pytest.raises(NotAPermutation):
            ordering_width(c4_edge, LinearOrdering((0, 0, 1, 2)))


class TestDuality:
    def test_c4_ultrafilter_both_ks(self, c4_edge):
        v = duality_audit(c4_edge, 1, "ultrafilter")
        assert (v.width_side, v.obstruction_side, v.consistent) == (False, False, True)
        v = duality_audit(c4_edge, 2, "ultrafilter")
        assert (v.width_side, v.obstruction_side, v.consistent) == (True, True, True)

    def test_trivial_tangle_k0_recorded(self, trivial2):
        # with the tangle axioms read literally, no order-1 tangle exists here
        v = duality_audit(trivial2, 0, "tangle")
        assert v.width_side is True
        assert v.obstruction_side is True
        assert v.consistent is True

    def test_single_ultrafilter_duality_small(self, c4_edge):
        for k in range(c4_edge.max_value + 1):
            assert duality_audit(c4_edge, k, "single_ultrafilter").consistent

    def test_unknown_kind(self, c4_edge):
        from connsys.errors import InvalidParameter

        with pytest.raises(InvalidParameter):
            duality_audit(c4_edge, 1, "filter")


class TestChainToDecomposition:
    def test_trivial_two_elements(self, trivial2):
        result = chain_to_decomposition(trivial2, [0, 0b01, 0b11])
        assert result.width == 0
        assert result.certificate.order == (0, 1)

    def test_c4_cyclic_chain(self, c4_edge):
        result = chain_to_decomposition(c4_edge, [0, 0b0001, 0b0011, 0b0111, 0b1111])
        assert result.width == 2

    def test_c4_opposite_chain_width4(self, c4_edge):
        result = chain_to_decomposition(c4_edge, [0, 0b0001, 0b0101, 0b0111, 0b1111])
        assert result.width == 4

    def test_declared_bound_violation(self, c4_edge):
        with pytest.raises(NotASequenceChain):
            chain_to_decomposition(c4_edge, [0, 0b0001, 0b0101, 0b0111, 0b1111], k=2)

    def test_multi_element_step_rejected(self, c4_edge):
        with pytest.raises(NotSingleElement):
            chain_to_decomposition(c4_edge, [0, 0b0011, 0b0111, 0b1111])

    def test_must_span(self, c4_edge):
        with pytest.raises(NotASequenceChain):
            chain_to_decomposition(c4_edge, [0, 0b0001])

    def test_width_bound_when_singletons_within_bound(self, c4_edge):
        sets = [0, 0b0001, 0b0011, 0b0111, 0b1111]
        bound = max(c4_edge.f(m) for m in sets)
        if all(c4_edge.f(1 << i) <= bound for i in range(4)):
            assert chain_to_decomposition(c4_edge, sets).width <= bound
