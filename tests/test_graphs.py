import copy
import dataclasses
import math
import operator
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from systemic import (ConnectivityError, DimensionError, DomainError, GenerationError,
                      GraphFormatError, MeasureDescriptor, NumericalError, ScaleError,
                      SimConfig, Topology, WeightedGraph, entropy_via_trees, estimate_h2,
                      evaluate, generate, graph_add, graph_spectrum, hp_norm_numeric,
                      is_connected, laplacian, laplacian_spectrum, parse_graph, scalar_mul,
                      serialize_graph, spanning_tree_count)

from systemic.design import canonical_edges, greedy_augment

from helpers import (analytic_spectrum, brute_force_tree_weight, count_edge_reads,
                     loop_generate, loop_graph_add, loop_is_connected, loop_laplacian,
                     loop_validate, random_connected)

FAMILIES = ("complete", "cycle", "path", "star", "erdos_renyi")
NON_FINITE = (math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("inf"))


def family_graph(family: str, n: int, weight_range=None) -> WeightedGraph:
    return generate(family, n, seed=n, p=min(1.0, 8.0 / n), weight_range=weight_range)


def stored_arrays(graph: WeightedGraph) -> list[np.ndarray]:
    return [value for value in vars(graph).values() if isinstance(value, np.ndarray)]


def canonical_hash(n: int, edges: tuple) -> int:
    """The graph hash's formula: n and the bytes of the canonical endpoint
    (intp) and weight (float64) columns of the sorted edge tuple."""
    columns = list(zip(*edges)) or [(), (), ()]
    return hash((n, *(np.array(column, dtype=dtype).tobytes() for column, dtype
                      in zip(columns, (np.intp, np.intp, np.float64)))))


def assert_graph_is(graph: WeightedGraph, n: int, edges: tuple) -> None:
    """graph holds exactly these canonical edges: values, element types, hash
    and the bytes of its stored arrays."""
    assert graph.n == n
    assert graph.edges == edges
    assert all(tuple(map(type, edge)) == (int, int, float) for edge in graph.edges)
    assert hash(graph) == canonical_hash(n, edges)
    columns = list(zip(*edges)) or [(), (), ()]
    for array, column, dtype in ((graph._us, columns[0], np.intp),
                                 (graph._vs, columns[1], np.intp),
                                 (graph._ws, columns[2], np.float64)):
        assert array.dtype == dtype
        assert array.tobytes() == np.array(column, dtype=dtype).tobytes()


def raised(build) -> tuple[type, str]:
    with pytest.raises(Exception) as excinfo:
        build()
    return type(excinfo.value), str(excinfo.value)


class TestParse:
    def test_k3_literal(self):
        graph = parse_graph("n 3\n0 1 1\n1 2 1\n0 2 1")
        assert graph.n == 3
        assert graph.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))

    def test_comments_and_blank_lines(self):
        graph = parse_graph("# header\n\nn 2\n# edge\n1 0 2.5\n")
        assert graph.edges == ((0, 1, 2.5),)

    def test_duplicate_edge(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_graph("n 3\n0 1 2.5\n0 1 1")

    def test_duplicate_after_normalization(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_graph("n 3\n0 1 2.5\n1 0 1")

    def test_negative_weight(self):
        with pytest.raises(DomainError, match="positive"):
            parse_graph("n 2\n0 1 -1")

    def test_zero_weight(self):
        with pytest.raises(DomainError, match="positive"):
            parse_graph("n 2\n0 1 0")

    def test_self_loop(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph("n 3\n1 1 1")

    def test_index_out_of_range(self):
        with pytest.raises(GraphFormatError, match=r"line 2: edge \(0, 3\) needs 0 <= u < v < 3"):
            parse_graph("n 3\n0 3 1")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph("0 1 1")

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError) as excinfo:
            parse_graph("n 3\n0 1 1\n0 1 2")
        assert excinfo.value.line == 3
        assert "line 3" in str(excinfo.value)


class TestLaplacian:
    def test_k3(self, k3):
        expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert np.array_equal(laplacian(k3), expected)

    def test_p3_degrees(self, p3):
        assert np.array_equal(p3.degrees, np.array([1.0, 2.0, 1.0]))

    def test_single_weighted_edge(self):
        graph = WeightedGraph.from_edges(2, [(0, 1, 5.0)])
        assert np.array_equal(laplacian(graph),
                              np.array([[5.0, -5.0], [-5.0, 5.0]]))

    def test_row_sums_zero(self):
        graph = random_connected(99)
        sums = laplacian(graph).sum(axis=1)
        assert np.abs(sums).max() < 1e-12

    def test_dense_budget_refuses_before_allocating(self):
        # 8193^2 doubles are just over graphs.DENSE_MATRIX_BYTES
        path = generate("path", 8193)
        with pytest.raises(ScaleError, match="n=8193 nodes needs 537001992 bytes"):
            laplacian(path)
        with pytest.raises(ScaleError, match="n=8193"):
            Topology.from_graph(path).laplacian_of(np.full(path.m, 1.0 / path.m))

    def test_dense_budget_refuses_before_the_degrees(self):
        # the 8 MB degree vector of a million nodes is not summed for a
        # Laplacian the budget refuses
        graph = WeightedGraph.from_edges(10**6, [(0, 1, 1.0)])
        with pytest.raises(ScaleError, match="n=1000000 nodes"):
            laplacian(graph)
        assert "degrees" not in vars(graph)


class TestLaplacianMatchesLoop:
    """The array assembly is bit-identical to the edge-by-edge loop;
    tobytes() equality also tells -0.0 from +0.0."""

    @staticmethod
    def assert_matches(graph):
        result = laplacian(graph)
        expected = loop_laplacian(graph)
        assert result.tobytes() == expected.tobytes()
        assert graph.degrees.tobytes() == np.diag(expected).tobytes()
        assert not result.flags.writeable

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_families(self, family, n):
        self.assert_matches(family_graph(family, n))

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_weighted_erdos_renyi(self, n):
        self.assert_matches(family_graph("erdos_renyi", n, weight_range=(1e-3, 1e3)))

    def test_weighted_random(self):
        for seed in range(20):
            self.assert_matches(random_connected(seed))

    def test_tiny_bridge(self):
        self.assert_matches(WeightedGraph.from_edges(
            4, [(0, 1, 1.0), (1, 2, 1e-9), (2, 3, 1.0)]))

    @pytest.mark.parametrize("n", [1, 4])
    def test_edgeless(self, n):
        graph = WeightedGraph(n=n, edges=())
        self.assert_matches(graph)
        assert not laplacian(graph).any()


class TestGraphContract:
    def test_hash_is_field_tuple_hash(self):
        # the fields are n and the canonical arrays, hashed as bytes
        for graph in (family_graph("complete", 10), random_connected(3),
                      WeightedGraph(n=3, edges=())):
            assert hash(graph) == canonical_hash(graph.n, graph.edges)

    def test_permuted_and_flipped_edges(self):
        graph = random_connected(5)
        rng = np.random.Generator(np.random.PCG64(5))
        order = rng.permutation(graph.m)
        flipped = [(v, u, w) for u, v, w in (graph.edges[i] for i in order)]
        permuted = tuple(graph.edges[i] for i in order)
        for other in (WeightedGraph.from_edges(graph.n, flipped),
                      WeightedGraph(n=graph.n, edges=permuted)):
            assert other == graph
            assert hash(other) == hash(graph)
            assert laplacian(other).tobytes() == laplacian(graph).tobytes()

    def test_repr_evaluates_to_the_graph(self):
        for graph in (random_connected(7), WeightedGraph(n=1, edges=())):
            assert eval(repr(graph), {"WeightedGraph": WeightedGraph}) == graph

    @pytest.mark.parametrize("round_trip", [
        lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy, copy.copy])
    def test_copies_keep_contract(self, round_trip):
        graph = random_connected(7)
        other = round_trip(graph)
        assert other == graph
        assert hash(other) == hash(graph) == canonical_hash(other.n, other.edges)
        assert laplacian(other).tobytes() == laplacian(graph).tobytes()
        assert all(not array.flags.writeable for array in stored_arrays(other))

    def test_stored_arrays_read_only(self):
        graph = random_connected(11)
        arrays = stored_arrays(graph)
        assert arrays
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0

    def test_stored_arrays_cost_at_most_24_bytes_per_edge(self):
        graph = family_graph("complete", 50)
        assert sum(array.nbytes for array in stored_arrays(graph)) <= 24 * graph.m

    def test_frozen(self, k3):
        with pytest.raises(dataclasses.FrozenInstanceError):
            k3.n = 4

    @pytest.mark.parametrize("edge", [(0.0, 1.0, 1.0), (0.5, 1.5, 1.0),
                                      (0, np.float64(2.0), 1.0)])
    def test_non_integer_endpoints_rejected(self, edge):
        with pytest.raises(GraphFormatError, match="endpoints must be integers"):
            WeightedGraph(n=3, edges=(edge,))

    def test_integer_like_endpoints_accepted(self):
        graph = WeightedGraph(n=3, edges=((np.int64(0), np.intp(2), 1.5), (False, True, 2.0)))
        assert graph == WeightedGraph(n=3, edges=((0, 1, 2.0), (0, 2, 1.5)))
        assert laplacian(graph).tobytes() == laplacian(
            WeightedGraph(n=3, edges=((0, 1, 2.0), (0, 2, 1.5)))).tobytes()

    def test_replace_recomputes(self, k3):
        edges = ((1, 2, 4.0), (0, 1, 0.5))
        other = dataclasses.replace(k3, edges=edges)
        fresh = WeightedGraph(n=3, edges=edges)
        assert other == fresh and other != k3
        assert hash(other) == hash(fresh) == canonical_hash(3, other.edges)
        assert laplacian(other).tobytes() == loop_laplacian(fresh).tobytes()


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_constructor_rejects(self, bad):
        with pytest.raises(DomainError, match=r"edge \(1, 2\) needs a positive finite weight"):
            WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, bad)))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_from_edges_rejects(self, bad):
        with pytest.raises(DomainError, match=r"edge \(1, 2\) needs a positive finite weight"):
            WeightedGraph.from_edges(3, [(0, 1, 1.0), (2, 1, bad)])

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_parse_rejects_with_line_number(self, token):
        with pytest.raises(DomainError,
                           match=r"line 3: edge \(1, 2\) needs a positive finite weight"):
            parse_graph(f"n 3\n0 1 1\n1 2 {token}\n")

    def test_numpy_and_int_weights_accepted(self):
        graph = WeightedGraph(n=3, edges=((0, 1, np.float64(2.5)), (1, 2, 3)))
        assert graph == WeightedGraph(n=3, edges=((0, 1, 2.5), (1, 2, 3.0)))
        assert laplacian(graph).tobytes() == loop_laplacian(graph).tobytes()
        assert np.array_equal(graph.degrees, [2.5, 5.5, 3.0])


class TestAlgebra:
    def test_union_builds_k3(self, p3, k3):
        extra = WeightedGraph.from_edges(3, [(0, 2, 1.0)])
        assert graph_add(p3, extra) == k3

    def test_double_equals_scale(self, k3):
        assert graph_add(k3, k3) == scalar_mul(2.0, k3)

    def test_shared_edge_weights_sum(self):
        a = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        b = WeightedGraph.from_edges(2, [(0, 1, 2.0)])
        assert graph_add(a, b).edges == ((0, 1, 3.0),)

    def test_dimension_mismatch(self, k3):
        with pytest.raises(DimensionError):
            graph_add(k3, WeightedGraph.from_edges(4, [(0, 1, 1.0)]))

    def test_laplacian_additivity_exact_dyadic(self):
        # with dyadic weights every addition is error-free, so the identity
        # holds bitwise; arbitrary floats can differ by re-association rounding
        def dyadic(seed, n):
            rng = np.random.Generator(np.random.PCG64(seed))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            keep = rng.random(len(pairs)) < 0.6
            return WeightedGraph.from_edges(
                n, [(u, v, float(rng.integers(1, 512)) / 64.0)
                    for (u, v), hit in zip(pairs, keep) if hit])

        g1, g2 = dyadic(5, 9), dyadic(6, 9)
        left = laplacian(graph_add(g1, g2))
        right = laplacian(g1) + laplacian(g2)
        assert np.array_equal(left, right)

    def test_laplacian_additivity_ulp_general(self):
        g1 = random_connected(5)
        g2 = random_connected(6, n_low=g1.n, n_high=g1.n)
        left = laplacian(graph_add(g1, g2))
        right = laplacian(g1) + laplacian(g2)
        scale = np.abs(right).max()
        assert np.abs(left - right).max() <= 4 * np.finfo(float).eps * scale

    def test_scalar_identity(self, k3):
        assert scalar_mul(1.0, k3) == k3

    def test_scalar_spectrum(self, k3):
        doubled = scalar_mul(2.0, k3)
        assert np.allclose(laplacian_spectrum(doubled).eigenvalues,
                           [0.0, 6.0, 6.0], atol=1e-12)

    def test_scalar_laplacian_within_ulp(self):
        graph = random_connected(44)
        alpha = 1.0 / 3.0
        left = laplacian(scalar_mul(alpha, graph))
        right = alpha * laplacian(graph)
        scale = np.abs(right).max()
        assert np.abs(left - right).max() <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
    def test_scalar_domain(self, k3, alpha):
        with pytest.raises(DomainError):
            scalar_mul(alpha, k3)


class TestSpanningTrees:
    def test_k3(self, k3):
        assert spanning_tree_count(k3) == pytest.approx(3.0, rel=1e-12)
        assert brute_force_tree_weight(k3) == 3.0

    def test_c4(self, c4):
        assert spanning_tree_count(c4) == pytest.approx(4.0, rel=1e-12)
        assert brute_force_tree_weight(c4) == 4.0

    def test_p3_single_tree(self, p3):
        assert spanning_tree_count(p3) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration(self, seed):
        graph = random_connected(seed, n_low=3, n_high=6)
        assert spanning_tree_count(graph) == pytest.approx(
            brute_force_tree_weight(graph), rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_drop_index_independent(self, seed):
        # every cofactor of the Laplacian is the same tree count
        graph = random_connected(100 + seed, n_low=3, n_high=6)
        count = spanning_tree_count(graph)
        full = laplacian(graph)
        for index in range(graph.n):
            keep = [i for i in range(graph.n) if i != index]
            assert np.linalg.det(full[np.ix_(keep, keep)]) == pytest.approx(count, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_tree_identity(self, seed):
        graph = random_connected(200 + seed, n_low=3, n_high=6)
        tau = spanning_tree_count(graph)
        product = float(np.prod(laplacian_spectrum(graph).nonzero))
        assert graph.n * tau == pytest.approx(product, rel=1e-9)

    def test_disconnected_is_zero(self):
        graph = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert abs(spanning_tree_count(graph)) < 1e-12
        with pytest.raises(ConnectivityError, match="non-positive"):
            spanning_tree_count(graph, log=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_log_matches_the_determinant(self, seed):
        graph = random_connected(300 + seed, n_low=3, n_high=8)
        assert spanning_tree_count(graph, log=True) == pytest.approx(
            math.log(spanning_tree_count(graph)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [180, 400])
    def test_cayley_beyond_overflow(self, n):
        # tau(K_n) = n^(n-2) overflows from n = 180; its log does not
        graph = generate("complete", n)
        assert spanning_tree_count(graph, log=True) == pytest.approx(
            (n - 2) * math.log(n), rel=1e-12)
        assert entropy_via_trees(graph) == pytest.approx(-(n - 1) * math.log(n), rel=1e-12)

    def test_tiny_weights_beyond_underflow(self):
        # tau = 1e-360 underflowed to 0.0, and entropy_via_trees raised
        # ConnectivityError on this connected graph
        graph = scalar_mul(1e-90, generate("path", 5))
        assert spanning_tree_count(graph) == 0.0
        spectral = evaluate(graph, MeasureDescriptor("entropy"))
        assert spectral == pytest.approx(827.32, abs=5e-3)
        assert entropy_via_trees(graph) == pytest.approx(spectral, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_two_components_decided_by_the_flag(self, seed):
        # the rounding of det gave 2.0e-6, -1.6e-4 and 1.4e-4, and slogdet a
        # finite log tau (-13.12 and -8.89 for seeds 0 and 3)
        copy = generate("erdos_renyi", 8, seed=seed, p=0.5, weight_range=(0.1, 3.0))
        graph = WeightedGraph(16, list(copy.edges)
                              + [(u + 8, v + 8, 1.7 * w) for u, v, w in copy.edges])
        assert not is_connected(graph)
        assert spanning_tree_count(graph) == 0.0
        with pytest.raises(ConnectivityError, match="non-positive"):
            spanning_tree_count(graph, log=True)

    def test_overflow_is_a_numerical_error(self):
        # det overflowed to inf with a RuntimeWarning; tau(K200) = 200^198
        with pytest.raises(NumericalError, match="overflows"):
            spanning_tree_count(generate("complete", 200))

    @pytest.mark.parametrize("n", [10, 50])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_count_is_exp_of_the_log(self, family, n):
        graph = family_graph(family, n, weight_range=(0.5, 2.0))
        assert spanning_tree_count(graph) == math.exp(spanning_tree_count(graph, log=True))

    @pytest.mark.parametrize("log", [False, True])
    def test_negative_lu_sign_on_a_connected_graph(self, monkeypatch, k3, log):
        # the flag says connected, so a sign the LU got wrong is numerical
        monkeypatch.setattr(np.linalg, "slogdet", lambda matrix: (-1.0, 1.0986))
        with pytest.raises(NumericalError, match="LU sign -1.0"):
            spanning_tree_count(k3, log=log)

    def test_single_node_has_one_tree(self):
        graph = WeightedGraph(n=1, edges=())
        assert spanning_tree_count(graph) == 1.0
        assert spanning_tree_count(graph, log=True) == 0.0


class TestGenerate:
    def test_complete_four(self):
        graph = generate("complete", 4)
        assert graph.m == 6
        assert all(w == 1.0 for _, _, w in graph.edges)

    def test_cycle_spectrum(self):
        spectrum = laplacian_spectrum(generate("cycle", 4)).eigenvalues
        assert np.allclose(spectrum, [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_star_spectrum(self):
        spectrum = laplacian_spectrum(generate("star", 4)).eigenvalues
        assert np.allclose(spectrum, analytic_spectrum("star", 4), atol=1e-12)

    def test_path_chain(self):
        assert generate("path", 4).edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))

    def test_deterministic_per_seed(self):
        a = generate("erdos_renyi", 10, seed=42, p=0.4, weight_range=(0.5, 2.0))
        b = generate("erdos_renyi", 10, seed=42, p=0.4, weight_range=(0.5, 2.0))
        assert a == b

    def test_seed_changes_draw(self):
        a = generate("erdos_renyi", 10, seed=1, p=0.4, weight_range=(0.5, 2.0))
        b = generate("erdos_renyi", 10, seed=2, p=0.4, weight_range=(0.5, 2.0))
        assert a != b

    def test_er_connected(self):
        for seed in range(10):
            assert is_connected(generate("erdos_renyi", 12, seed=seed, p=0.3))

    def test_weight_range(self):
        graph = generate("erdos_renyi", 8, seed=0, p=0.6, weight_range=(2.0, 3.0))
        assert all(2.0 <= w <= 3.0 for _, _, w in graph.edges)

    def test_retry_budget(self):
        # 100 draws, each with about one edge of 780 pairs, all disconnected
        failure = raised(lambda: generate("erdos_renyi", 40, seed=0, p=0.001))
        assert failure == (GenerationError, "no connected draw in 100 tries (n=40, p=0.001)")
        assert failure == raised(lambda: loop_generate("erdos_renyi", 40, seed=0, p=0.001))

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            generate("complete", 1)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            generate("torus", 4)

    # NumPy's seed sequence raised a bare ValueError for seed=-1, and a
    # TypeError for seed=2.5
    @pytest.mark.parametrize("name, value", [("seed", -1), ("seed", 2.5), ("seed", True)])
    def test_counts_are_integers(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be an integer >= 0"):
            generate("path", 5, **{name: value})

    # the unpacking raised a bare ValueError or TypeError
    @pytest.mark.parametrize("weight_range", [(1,), (1, 2, 3), 2.0])
    def test_weight_range_is_a_pair(self, weight_range):
        with pytest.raises(DomainError, match="weight range must be a pair"):
            generate("path", 5, weight_range=weight_range)

    # an infinite bound escaped from Generator.uniform as a bare OverflowError
    @pytest.mark.parametrize("weight_range", [(1, math.inf), (math.inf, math.inf),
                                              (1, math.nan), (0, 1), (2, 1)])
    @pytest.mark.parametrize("family", ["path", "erdos_renyi"])
    def test_weight_range_bounds(self, family, weight_range):
        with pytest.raises(DomainError,
                           match=r"weight range must satisfy 0 < lo <= hi < inf, got"):
            generate(family, 4, weight_range=weight_range)


class TestConnectivity:
    def test_k3(self, k3):
        assert is_connected(k3)

    def test_isolated_node(self):
        assert not is_connected(WeightedGraph.from_edges(3, [(0, 1, 1.0)]))

    def test_single_node(self):
        assert is_connected(WeightedGraph(n=1, edges=()))


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    weights = draw(st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=len(chosen), max_size=len(chosen)))
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


class TestSerialization:
    @given(weighted_graphs())
    def test_round_trip(self, graph):
        assert parse_graph(serialize_graph(graph)) == graph

    def test_edges_sorted(self):
        graph = WeightedGraph.from_edges(3, [(1, 2, 1.0), (0, 2, 2.0)])
        lines = serialize_graph(graph).splitlines()
        assert lines == ["n 3", "0 2 2", "1 2 1"]

    def test_full_precision(self):
        weight = 1.0 / 3.0 * 1e3
        graph = WeightedGraph.from_edges(2, [(0, 1, weight)])
        assert parse_graph(serialize_graph(graph)).edges[0][2] == weight

    @pytest.mark.parametrize("weights", ["extreme", "random", "edgeless"])
    def test_bytes_of_the_per_edge_format(self, weights):
        # the text once came from one f-string per edge
        graph = generate("erdos_renyi", 40, seed=6, p=0.3, weight_range=(0.5, 2.0))
        if weights == "extreme":
            extremes = [1e-300, 1e300, 5e-324, 1.7976931348623157e308, 1.0, 0.1]
            graph = WeightedGraph.from_edges(graph.n, [
                (u, v, extremes[i % len(extremes)]) for i, (u, v, _) in enumerate(graph.edges)])
        elif weights == "edgeless":
            graph = WeightedGraph.from_edges(1, [])
        lines = [f"n {graph.n}"] + [f"{u} {v} {w:.17g}" for u, v, w in graph.edges]
        assert serialize_graph(graph) == "\n".join(lines) + "\n"


class TestGenerateMatchesLoop:
    """The array generators give the loop generator's graphs bit for bit,
    drawing from the seeded generator in the same order."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 10, 50, 200])
    @pytest.mark.parametrize("weight_range", [None, (0.5, 2.0), (1e-3, 1e3)])
    def test_families(self, family, n, weight_range):
        for seed in (0, 1, 801):
            kwargs = dict(seed=seed, p=min(1.0, 8.0 / n), weight_range=weight_range)
            if family == "cycle" and n == 2:
                assert raised(lambda: generate(family, n, **kwargs)) == raised(
                    lambda: loop_generate(family, n, **kwargs))
                continue
            assert_graph_is(generate(family, n, **kwargs), n,
                            loop_generate(family, n, **kwargs))

    @pytest.mark.parametrize("seed", range(6))
    def test_erdos_renyi_after_retries(self, seed):
        # near the connectivity threshold the first draw is often
        # disconnected; the graphs must agree after the retries too
        kwargs = dict(seed=seed, p=0.07, weight_range=(0.2, 5.0))
        assert_graph_is(generate("erdos_renyi", 50, **kwargs), 50,
                        loop_generate("erdos_renyi", 50, **kwargs))

    def test_some_draws_are_retried(self):
        # the first draw of a seed is its generator's first 1,225 uniforms
        us, vs = np.triu_indices(50, 1)
        retried = 0
        for seed in range(6):
            hits = np.random.Generator(np.random.PCG64(seed)).random(us.size) < 0.07
            retried += not loop_is_connected(50, zip(us[hits], vs[hits]))
        assert retried >= 2

    @pytest.mark.parametrize("call", [
        lambda g: g("erdos_renyi", 10, p=0.0), lambda g: g("complete", 5, weight_range=(2.0, 1.0)),
        lambda g: g("erdos_renyi", 10, weight_range=(0.0, 1.0)), lambda g: g("torus", 4),
        lambda g: g("path", 1)])
    def test_same_argument_errors(self, call):
        assert raised(lambda: call(generate)) == raised(lambda: call(loop_generate))


class TestConnectivityMatchesLoop:
    @staticmethod
    def assert_matches(graph):
        assert is_connected(graph) is loop_is_connected(graph.n, graph.edges)

    def test_random_graphs(self):
        rng = np.random.Generator(np.random.PCG64(17))
        outcomes = set()
        for _ in range(300):
            n = int(rng.integers(1, 40))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            keep = rng.random(len(pairs)) < rng.uniform(0.0, 0.4)
            graph = WeightedGraph.from_edges(
                n, [(u, v, 1.0) for (u, v), hit in zip(pairs, keep) if hit])
            self.assert_matches(graph)
            outcomes.add(is_connected(graph))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_edgeless(self, n):
        self.assert_matches(WeightedGraph(n=n, edges=()))
        assert is_connected(WeightedGraph(n=n, edges=())) is (n == 1)

    @pytest.mark.parametrize("n", [2, 3, 6, 50])
    def test_last_node_isolated(self, n):
        graph = WeightedGraph.from_edges(
            n, [(u, v, 1.0) for u in range(n - 1) for v in range(u + 1, n - 1)])
        self.assert_matches(graph)
        assert not is_connected(graph)
        assert is_connected(graph_add(graph, WeightedGraph.from_edges(n, [(0, n - 1, 1.0)])))

    def test_two_cliques_with_spare_edges(self):
        # more than n - 1 edges, still two components
        cliques = [(u, v, 1.0) for block in (range(0, 5), range(5, 10))
                   for u in block for v in block if u < v]
        self.assert_matches(WeightedGraph.from_edges(10, cliques))
        assert not is_connected(WeightedGraph.from_edges(10, cliques))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 10, 200])
    def test_families(self, family, n):
        if family == "cycle" and n == 2:
            return
        self.assert_matches(family_graph(family, n))

    def test_descending_chain(self):
        # every edge joins the highest remaining node, so each round of
        # hooking merges one node at a time into the tree of node 0
        n = 30
        graph = WeightedGraph.from_edges(n, [(n - 1 - i, n - 2 - i, 1.0) for i in range(n - 1)])
        self.assert_matches(graph)
        assert is_connected(graph)

    def test_topology_connectivity(self):
        rng = np.random.Generator(np.random.PCG64(23))
        for _ in range(100):
            n = int(rng.integers(2, 12))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            chosen = tuple(pair for pair in pairs if rng.random() < 0.3)
            if loop_is_connected(n, chosen):
                assert Topology(n=n, edges=chosen).m == len(chosen)
            else:
                with pytest.raises(ConnectivityError):
                    Topology(n=n, edges=chosen)

    @pytest.mark.parametrize("n, edges, message", [
        (3, ((0, 1), (2, 2), (1, 2)), "self-loop at node 2"),
        (3, ((0, 1), (1, 3)), "edge (1, 3) needs 0 <= u < v < 3"),
        (3, ((-1, 1), (1, 2), (0, 0)), "edge (-1, 1) needs 0 <= u < v < 3"),
    ])
    def test_topology_endpoint_errors(self, n, edges, message):
        # the errors a unit-weight graph on the sorted pairs would raise
        with pytest.raises(GraphFormatError) as excinfo:
            Topology(n=n, edges=edges)
        assert str(excinfo.value) == message

    def test_topology_node_count(self):
        with pytest.raises(DomainError, match="node count must be positive, got 0"):
            Topology(n=0, edges=())

    @pytest.mark.parametrize("build", [
        lambda n: WeightedGraph(n, [(0, 1, 1.0), (1, 2, 1.0)]),
        lambda n: WeightedGraph.from_edges(n, [(0, 1, 1.0), (1, 2, 1.0)]),
        lambda n: Topology(n=n, edges=((0, 1), (1, 2))),
        lambda n: generate("path", n),
        lambda n: generate("cycle", n),
        lambda n: generate("complete", n),
    ], ids=["constructor", "from_edges", "topology", "path", "cycle", "complete"])
    def test_node_count_is_an_int(self, build):
        # a float count used to die in the connectivity check, and True passed as 1
        for bad in (3.0, np.float64(3.0), True, "3"):
            with pytest.raises(GraphFormatError, match="node count must be an integer"):
                build(bad)
        built = build(np.int64(3))
        assert type(built.n) is int and built.n == 3


# Edge lists with several defects each.  Every edge is read first: its size,
# then the endpoints in input order, then the weights; only then is each edge
# checked, in input order, for a self-loop, its range, its weight and a
# duplicate, and the first defect is named.
MALFORMED = [
    (4, ((0, 1, 1.0), (2, 2, 1.0), (0, 5, 1.0), (1, 0, -1.0)),
     GraphFormatError, "self-loop at node 2"),
    (4, ((0, 1, 1.0), (0, 5, 1.0), (2, 2, 1.0)),
     GraphFormatError, "edge (0, 5) needs 0 <= u < v < 4"),
    # (2, 1) is the edge (1, 2)
    (4, ((0, 1, 1.0), (2, 1, 1.0), (3, 3, 0.0)),
     GraphFormatError, "self-loop at node 3"),
    (4, ((0, 1, 1.0), (-1, 2, 1.0), (1, 1, 1.0)),
     GraphFormatError, "edge (-1, 2) needs 0 <= u < v < 4"),
    (4, ((0, 1, 1.0), (1, 2, 0.0), (0, 1, 2.0), (3, 3, 1.0)),
     DomainError, "edge (1, 2) needs a positive finite weight, got 0.0"),
    (4, ((0, 1, math.nan), (-1, 2, 1.0)),
     DomainError, "edge (0, 1) needs a positive finite weight, got nan"),
    # the messages print the values read: the weight -2 as -2.0, True as 1
    (4, ((0, 1, 1), (1, 2, -2), (1, 2, 1.0)),
     DomainError, "edge (1, 2) needs a positive finite weight, got -2.0"),
    (4, ((0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0), (3, 3, 1.0), (1, 2, math.inf)),
     GraphFormatError, "duplicate edge (0, 1)"),
    (4, ((2, 3, 1.0), (0, 1, 1.0), (2, 3, 1.0), (0, 1, 1.0)),
     GraphFormatError, "duplicate edge (2, 3)"),
    (4, ((2, 3, 1.0), (0, 1, 1.0), (0, 2, 1.0), (0, 1, 3.0), (2, 3, -1.0)),
     GraphFormatError, "duplicate edge (0, 1)"),
    (4, ((np.int64(0), np.int64(1), 1.0), (np.int64(1), np.int64(1), 1.0)),
     GraphFormatError, "self-loop at node 1"),
    (4, ((False, True, 1.0), (True, False, 1.0)),
     GraphFormatError, "duplicate edge (0, 1)"),
    # every endpoint is read before any edge is checked
    (4, ((0.5, 1.5, 1.0), (2, 2, 1.0)), GraphFormatError,
     "edge endpoints must be integers: 'float' object cannot be interpreted as an integer"),
    (4, ((0.5, 1.5, 1.0), (1, 2, np.float64(-1.0))), GraphFormatError,
     "edge endpoints must be integers: 'float' object cannot be interpreted as an integer"),
    (4, ((1, 2, 1.0), (0.0, 1.0, 1.0)), GraphFormatError,
     "edge endpoints must be integers: 'float' object cannot be interpreted as an integer"),
    # read in input order, so the numpy float that comes first is named
    (4, ((2, 3, 1.0), (np.float64(1.0), 2, 1.0), (0.0, 1, 1.0)), GraphFormatError,
     "edge endpoints must be integers: 'numpy.float64' object cannot be interpreted as an "
     "integer"),
    (0, ((0, 0, -1.0),), DomainError, "node count must be positive, got 0"),
]


def augment_star(n: int, candidates) -> None:
    """greedy_augment, one edge, on the star centred at node n - 1; the
    READ_ALIKE rows put no candidate on one of its edges before the defect."""
    star = WeightedGraph(n, [(u, n - 1, 1.0) for u in range(n - 1)])
    greedy_augment(star, 1, candidates, "inverse")


TRIPLE_ROUTES = (WeightedGraph, WeightedGraph.from_edges, augment_star)
PAIR_ROUTES = (Topology, canonical_edges)

# malformed (u < v) lists that every route refuses alike: the triple routes
# as they are, the pair routes with the weights dropped
READ_ALIKE = [
    (4, ((0, 1, 1.0), (2, 2, 1.0), (0, 5, 1.0)), GraphFormatError, "self-loop at node 2"),
    (4, ((0, 1, 1.0), (0, 5, 1.0), (2, 2, 1.0)),
     GraphFormatError, "edge (0, 5) needs 0 <= u < v < 4"),
    (4, ((1, 2, 1.0), (-1, 2, 1.0)), GraphFormatError, "edge (-1, 2) needs 0 <= u < v < 4"),
    (4, ((False, True, 1.0), (True, True, 1.0)), GraphFormatError, "self-loop at node 1"),
    (4, ((0, 1, 1.0), (2, 2, 1.0), (0.5, 1, 1.0)), GraphFormatError,
     "edge endpoints must be integers: 'float' object cannot be interpreted as an integer"),
    (4, ((1, 2, 1.0), (np.float64(1.0), 2, 1.0), (0.0, 1, 1.0)), GraphFormatError,
     "edge endpoints must be integers: 'numpy.float64' object cannot be interpreted as an "
     "integer"),
    (4, ((0, 1, 1.0), (1, None, 1.0)), GraphFormatError,
     "edge endpoints must be integers: 'NoneType' object cannot be interpreted as an integer"),
    (4, ((0, 1, 1.0), ("1", 2, 1.0)), GraphFormatError,
     "edge endpoints must be integers: 'str' object cannot be interpreted as an integer"),
    (4, ((0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0), (3, 3, 1.0)),
     GraphFormatError, "duplicate edge (0, 1)"),
    # an endpoint intp cannot hold is refused when read, before the float after it
    (4, ((0, 1, 1.0), (1, 10**30, 1.0), (0.5, 1, 1.0)), GraphFormatError,
     f"edge endpoint {10**30} is out of range"),
    (4, ((0, 1, 1.0), (-2**63 - 1, 1, 1.0)), GraphFormatError,
     f"edge endpoint {-2**63 - 1} is out of range"),
    # the weight defect, which the pair routes, carrying none, cannot show
    (4, ((0, 1, 1.0), (1, 2, math.inf), (2, 2, 1.0)),
     DomainError, "edge (1, 2) needs a positive finite weight, got inf"),
    (4, ((1, 2, 1.0), (0, 2, -0.0), (0, 5, 1.0)),
     DomainError, "edge (0, 2) needs a positive finite weight, got -0.0"),
]


def parse_rows(n: int, edges) -> WeightedGraph:
    """parse_graph on the file of n and the integer rows u v w."""
    rows = (f"{operator.index(u)} {operator.index(v)} {float(w)!r}\n" for u, v, w in edges)
    return parse_graph(f"n {n}\n" + "".join(rows))


class TestMalformedEdges:
    @pytest.mark.parametrize("n, edges, kind, message", MALFORMED)
    def test_first_defect_named(self, n, edges, kind, message):
        assert raised(lambda: loop_validate(n, edges)) == (kind, message)
        assert raised(lambda: WeightedGraph(n=n, edges=edges)) == (kind, message)

    @pytest.mark.parametrize("n, edges, message", [
        (4, [(1, 0, 1.0), (3, 3, 1.0), (0, 9, 1.0)], "self-loop at node 3"),
        (4, [(1, 0, 1.0), (0, 1, 1.0)], "duplicate edge (0, 1)"),
        (4, [(2, 3, 1.0), (5, 0, 1.0), (1, 1, 1.0)], "edge (0, 5) needs 0 <= u < v < 4"),
        (3, [(0, 1, 1.0), (2, 1, math.nan), (1, 2, 1.0)],
         "edge (1, 2) needs a positive finite weight, got nan"),
        (3, [(np.intp(2), np.int64(1), np.float64(-0.5))],
         "edge (1, 2) needs a positive finite weight, got -0.5"),
    ])
    def test_from_edges_first_defect_named(self, n, edges, message):
        expected = raised(lambda: loop_validate(n, edges))
        assert expected[1] == message
        assert raised(lambda: WeightedGraph.from_edges(n, edges)) == expected

    @pytest.mark.parametrize("edge", [(0, 1), (0, 1, 1.0, 2.0), 7])
    def test_wrong_arity(self, edge):
        # every size is read first, so the float endpoint before it is not named
        edges = [(0.5, 2, 1.0), edge]
        expected = (GraphFormatError, f"edges must be (u, v, w) triples, got {edge!r}")
        assert raised(lambda: loop_validate(3, edges)) == expected
        for route in TRIPLE_ROUTES:
            assert raised(lambda: route(3, edges)) == expected, route.__name__

    @pytest.mark.parametrize("n", [3.0, True, 0])
    def test_node_count_read_first(self, n):
        # every route that takes a node count checks it before the edges
        edges = [(0.5, 1, 1.0), (0, 1)]
        expected = raised(lambda: WeightedGraph(n, []))
        assert expected[0] in (GraphFormatError, DomainError)
        for route in TRIPLE_ROUTES[:2]:
            assert raised(lambda: route(n, edges)) == expected, route.__name__
        for route in PAIR_ROUTES:
            assert raised(lambda: route(n, [edge[:2] for edge in edges])) == expected, \
                route.__name__

    @pytest.mark.parametrize("pair", [(0,), (0, 1, 1.0), 7])
    def test_wrong_pair_arity(self, pair):
        pairs = [(0.5, 2), pair]
        expected = (GraphFormatError, f"edges must be (u, v) pairs, got {pair!r}")
        for route in PAIR_ROUTES:
            assert raised(lambda: route(3, pairs)) == expected, route.__name__

    # float() parsed the string: from_edges and greedy_augment took "1.0" as 1.0
    # and a NumPy complex weight was cut to its real part
    @pytest.mark.parametrize("weight", ["1.0", None, 1j, np.complex128(1 + 2j),
                                        np.complex64(1)])
    def test_non_numeric_weight(self, weight):
        edges = [(0, 1, 1.0), (1, 2, weight)]
        expected = raised(lambda: loop_validate(3, edges))
        assert expected[0] is GraphFormatError
        assert expected[1].startswith("edge weights must be numbers: ")
        for route in TRIPLE_ROUTES:
            assert raised(lambda: route(3, edges)) == expected, route.__name__

    @pytest.mark.parametrize("n, edges, kind, message", READ_ALIKE)
    def test_every_route_reads_alike(self, n, edges, kind, message):
        # the one exception: greedy_augment takes a repeated pair as a second
        # weight option
        duplicate = message.startswith("duplicate")
        for route in TRIPLE_ROUTES:
            if route is augment_star and duplicate:
                route(n, edges[:3])
            else:
                assert raised(lambda: route(n, edges)) == (kind, message), route.__name__
        if kind is not DomainError:
            pairs = [edge[:2] for edge in edges]
            for route in PAIR_ROUTES:
                assert raised(lambda: route(n, pairs)) == (kind, message), route.__name__
        # a file names the same edge after its `line L: ` prefix; it reads its
        # tokens by its own rule, so _read_edges' endpoint messages are not its
        if not message.startswith("edge endpoint"):
            error, text = raised(lambda: parse_rows(n, edges))
            line, _, rest = text.partition(": ")
            assert (error, rest) == (kind, message) and line.startswith("line ")

    def test_valid_lists_match_loop(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(50):
            n = int(rng.integers(1, 15))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            order = rng.permutation(len(pairs))[:int(rng.integers(0, len(pairs) + 1))]
            edges = tuple((pairs[i][0], pairs[i][1], float(rng.uniform(0.1, 9.0)))
                          for i in order)
            assert_graph_is(WeightedGraph(n=n, edges=edges), n, loop_validate(n, edges))
            flipped = [(v, u, w) for u, v, w in edges]
            assert_graph_is(WeightedGraph.from_edges(n, flipped), n,
                            loop_validate(n, flipped))

    def test_constructor_is_from_edges(self):
        # an edge has no orientation: every route puts each pair as u < v
        rng = np.random.Generator(np.random.PCG64(37))
        for _ in range(300):
            n = int(rng.integers(2, 15))
            us, vs = np.triu_indices(n, 1)
            chosen = rng.permutation(us.size)[:int(rng.integers(0, us.size + 1))]
            swap = rng.random(chosen.size) < 0.5
            edges = [(int(v), int(u), float(w)) if flip else (int(u), int(v), float(w))
                     for u, v, w, flip in zip(us[chosen], vs[chosen],
                                              rng.uniform(0.1, 9.0, chosen.size), swap)]
            graph, same = WeightedGraph(n, edges), WeightedGraph.from_edges(n, edges)
            assert graph == same and hash(graph) == hash(same)
            assert array_bytes(graph) == array_bytes(same)


class TestCanonicalEdges:
    def test_from_edges_rejects_float_endpoints(self):
        # int() would truncate these into the path 0-1-2
        with pytest.raises(GraphFormatError, match="endpoints must be integers"):
            WeightedGraph.from_edges(3, [(0.5, 1, 1.0), (1, 2.9, 1.0)])

    @pytest.mark.parametrize("edges", [
        ((False, True, 2.0),),
        ((np.int64(0), np.int64(2), np.float64(1.5)), (np.int64(1), np.int64(2), 2)),
        ((np.intp(1), np.intp(0), np.float64(0.25)),),
        ((0, 1, 3), (1, 2, np.float64(1e-300))),
        ((True, 2, np.float32(0.1)), (0, True, 7)),
    ])
    def test_stored_as_int_int_float(self, edges):
        ordered = tuple((min(u, v), max(u, v), w) for u, v, w in edges)
        for graph in (WeightedGraph(n=3, edges=ordered), WeightedGraph.from_edges(3, edges)):
            assert all(tuple(map(type, edge)) == (int, int, float) for edge in graph.edges)
            assert parse_graph(serialize_graph(graph)) == graph
            assert hash(graph) == canonical_hash(3, loop_validate(3, ordered))


def array_bytes(graph: WeightedGraph) -> list[bytes]:
    return [array.tobytes() for array in (graph._us, graph._vs, graph._ws)]


# the twelve measure descriptors of the benchmark's catalog workload
CATALOG_DESCRIPTORS = [
    MeasureDescriptor("energy1"), MeasureDescriptor("energy2"), MeasureDescriptor("h2"),
    MeasureDescriptor("hinf"), MeasureDescriptor("convergence_time"),
    MeasureDescriptor("entropy"), MeasureDescriptor("local_error"),
    MeasureDescriptor("zeta_measure", p=2.0), MeasureDescriptor("zeta_measure", p=math.inf),
    MeasureDescriptor("hp_norm", p=3.0), MeasureDescriptor("schur_sum", f_id="inverse_pow:2"),
    MeasureDescriptor("schur_sum", f_id="exp_decay:0.5"),
]


class TestArrayContract:
    """The endpoint and weight arrays are the graph: every route in gives
    equal graphs with equal hashes, and the edge tuple is built only when
    `edges` is read."""

    @pytest.mark.parametrize("build", [
        lambda: generate("erdos_renyi", 30, seed=12, p=0.3, weight_range=(0.1, 10.0)),
        lambda: generate("complete", 12), lambda: WeightedGraph(n=5, edges=())])
    def test_every_route_equal_and_hash_equal(self, build):
        graph = build()
        rng = np.random.Generator(np.random.PCG64(9))
        edges = graph.edges
        shuffled = [edges[i] for i in rng.permutation(len(edges))]
        text = serialize_graph(graph)
        routes = {
            "constructor, shuffled": WeightedGraph(n=graph.n, edges=shuffled),
            "from_edges, swapped": WeightedGraph.from_edges(
                graph.n, [(v, u, w) for u, v, w in shuffled]),
            "parse(serialize)": parse_graph(text),
            "parse with a comment": parse_graph("# a comment\n" + text),
            "graph_add edgeless": graph_add(graph, WeightedGraph(n=graph.n, edges=())),
            "graph_add edgeless first": graph_add(WeightedGraph(n=graph.n, edges=()), graph),
            "scalar_mul 1": scalar_mul(1.0, graph),
            "copy": copy.copy(graph),
            "deepcopy": copy.deepcopy(graph),
            "pickle": pickle.loads(pickle.dumps(graph)),
            "built again": build(),
        }
        for name, other in routes.items():
            assert other == graph and graph == other and not other != graph, name
            assert hash(other) == hash(graph), name
            assert array_bytes(other) == array_bytes(graph), name
            assert is_connected(other) is is_connected(graph), name

    def test_one_ulp_weight_change_is_unequal(self):
        graph = generate("erdos_renyi", 30, seed=12, p=0.3, weight_range=(0.1, 10.0))
        edges = list(graph.edges)
        for index in (0, len(edges) // 2, len(edges) - 1):
            u, v, w = edges[index]
            for nudged in (math.nextafter(w, math.inf), math.nextafter(w, 0.0)):
                changed = edges[:index] + [(u, v, nudged)] + edges[index + 1:]
                other = WeightedGraph(n=graph.n, edges=changed)
                assert other != graph and not other == graph
                # equality does not rest on the hash: the arrays tell them apart
                object.__setattr__(other, "_hash", hash(graph))
                assert other != graph
        assert WeightedGraph(n=graph.n + 1, edges=edges) != graph
        assert graph != graph.edges

    def test_measures_never_build_the_edge_tuple(self, monkeypatch):
        reads = count_edge_reads(monkeypatch)
        graphs = [generate(family, 10) for family in ("complete", "cycle", "path", "star")]
        graphs.append(generate("erdos_renyi", 30, seed=5, p=0.3, weight_range=(0.5, 2.0)))
        for graph in graphs:
            for descriptor in CATALOG_DESCRIPTORS:
                assert math.isfinite(evaluate(graph, descriptor))
            hp_norm_numeric(graph, 3.0)
            entropy_via_trees(graph)
            lam = graph_spectrum(graph).nonzero
            dt = 0.5 / float(lam[-1])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a short burn-in is fine here
                estimate_h2(graph, SimConfig(dt=dt, horizon=300 * dt, burn_in=100 * dt,
                                             trials=2, seed=1))
        assert reads == []
        graphs[0].edges
        assert reads == [id(graphs[0])]  # the check above can see a read

    def test_complete_1000_holds_24_bytes_per_edge(self):
        generate("complete", 10)  # first-use imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph = generate("complete", 1000)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert "degrees" not in vars(graph)
        # the three arrays, plus a fixed allowance for the object and array headers
        assert held <= 24 * graph.m + 4096

    @pytest.mark.parametrize("graph", [generate("star", 6),
                                       random_connected(4, weight_range=(1e-3, 1e3))])
    def test_degrees_are_the_laplacian_diagonal(self, graph):
        degrees = graph.degrees
        assert not degrees.flags.writeable
        assert degrees.tobytes() == np.diag(loop_laplacian(graph)).tobytes()


class TestAlgebraMatchesLoop:
    @pytest.mark.parametrize("seed", range(12))
    def test_graph_add(self, seed):
        g1 = random_connected(seed, n_low=2, n_high=9)
        rng = np.random.Generator(np.random.PCG64(seed))
        pairs = [(u, v) for u in range(g1.n) for v in range(u + 1, g1.n)]
        g2 = WeightedGraph.from_edges(g1.n, [(u, v, float(rng.uniform(0.1, 3.0)))
                                             for u, v in pairs if rng.random() < 0.4])
        assert_graph_is(graph_add(g1, g2), g1.n, loop_graph_add(g1, g2))
        assert_graph_is(graph_add(g2, g1), g1.n, loop_graph_add(g2, g1))

    # the union's flag comes from its operands where one is connected
    @pytest.mark.parametrize("left, right, connected", [
        ([(0, 1), (1, 2), (2, 3)], [(0, 2)], True),
        ([(0, 1)], [(2, 3)], False),
        ([(0, 1), (2, 3)], [(1, 2)], True),
        ([(0, 1)], [(0, 1), (1, 2)], False),
    ])
    def test_graph_add_connectivity(self, left, right, connected):
        g1, g2 = (WeightedGraph.from_edges(4, [(u, v, 1.0) for u, v in pairs])
                  for pairs in (left, right))
        for union in (graph_add(g1, g2), graph_add(g2, g1)):
            assert is_connected(union) is connected
            assert is_connected(union) == is_connected(WeightedGraph(4, union.edges))

    def test_graph_add_overflow_named(self):
        huge = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1e308)])
        assert raised(lambda: graph_add(huge, huge)) == (
            DomainError, "edge (1, 2) needs a positive finite weight, got inf")

    @pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1.0 / 3.0, 7, 1e308])
    def test_scalar_mul(self, alpha):
        graph = random_connected(21, weight_range=(0.5, 2.0))
        expected = tuple((u, v, alpha * w) for u, v, w in graph.edges)
        if all(0.0 < w < math.inf for _, _, w in expected):
            assert_graph_is(scalar_mul(alpha, graph), graph.n, expected)
        else:
            assert raised(lambda: scalar_mul(alpha, graph)) == raised(
                lambda: WeightedGraph(n=graph.n, edges=expected))


# Malformed files: each keeps the message and line number of the per-line
# parser that checked every edge itself.
MALFORMED_FILES = [
    ("", GraphFormatError, "empty input: missing `n <count>` header", None),
    ("# only a comment\n\n", GraphFormatError, "empty input: missing `n <count>` header", None),
    ("0 1 1\n", GraphFormatError, "line 1: expected header `n <count>`", 1),
    ("m 3\n0 1 1\n", GraphFormatError, "line 1: expected header `n <count>`", 1),
    ("n 3 4\n", GraphFormatError, "line 1: expected header `n <count>`", 1),
    ("n x\n", GraphFormatError, "line 1: bad node count 'x'", 1),
    ("n 2.5\n", GraphFormatError, "line 1: bad node count '2.5'", 1),
    ("n 0\n", GraphFormatError, "line 1: node count must be positive, got 0", 1),
    ("n -2\n", GraphFormatError, "line 1: node count must be positive, got -2", 1),
    ("n 3\n0 1\n", GraphFormatError, "line 2: expected `u v w`", 2),
    ("n 3\n0 1 1 1\n", GraphFormatError, "line 2: expected `u v w`", 2),
    ("n 3\n0 1 1\n1 2\n", GraphFormatError, "line 3: expected `u v w`", 3),
    ("n 3\n0.5 1 1\n", GraphFormatError, "line 2: cannot parse edge line '0.5 1 1'", 2),
    ("n 3\n0 1 1\na 2 1\n", GraphFormatError, "line 3: cannot parse edge line 'a 2 1'", 3),
    ("n 3\n0 1 w\n", GraphFormatError, "line 2: cannot parse edge line '0 1 w'", 2),
    ("n 3\n0 1 1\n2 2 1\n", GraphFormatError, "line 3: self-loop at node 2", 3),
    ("n 3\n0 3 1\n", GraphFormatError, "line 2: edge (0, 3) needs 0 <= u < v < 3", 2),
    ("n 3\n-1 2 1\n", GraphFormatError, "line 2: edge (-1, 2) needs 0 <= u < v < 3", 2),
    ("n 3\n3 0 1\n", GraphFormatError, "line 2: edge (0, 3) needs 0 <= u < v < 3", 2),
    ("n 3\n0 99999999999999999999 1\n", GraphFormatError,
     "line 2: edge (0, 99999999999999999999) needs 0 <= u < v < 3", 2),
    ("n 3\n99999999999999999999 99999999999999999999 1\n", GraphFormatError,
     "line 2: self-loop at node 99999999999999999999", 2),
    ("n 3\n0 1 0\n", DomainError,
     "line 2: edge (0, 1) needs a positive finite weight, got 0.0", 2),
    ("n 3\n0 1 -1.5\n", DomainError,
     "line 2: edge (0, 1) needs a positive finite weight, got -1.5", 2),
    ("n 3\n0 1 nan\n", DomainError,
     "line 2: edge (0, 1) needs a positive finite weight, got nan", 2),
    ("n 3\n0 1 inf\n", DomainError,
     "line 2: edge (0, 1) needs a positive finite weight, got inf", 2),
    ("n 3\n0 1 -inf\n", DomainError,
     "line 2: edge (0, 1) needs a positive finite weight, got -inf", 2),
    ("n 3\n0 1 1\n1 2 1\n0 1 2\n", GraphFormatError, "line 4: duplicate edge (0, 1)", 4),
    ("n 3\n0 1 1\n1 2 1\n1 0 2\n", GraphFormatError, "line 4: duplicate edge (0, 1)", 4),
    # comments, blank lines, tabs, CRLF and padded lines
    ("# comment\nn 4\n\n0 1 1\n# another\n  2 3 1  \n3 2 5\n", GraphFormatError,
     "line 7: duplicate edge (2, 3)", 7),
    ("n 3\n# a b\n0 1 1\n1 1 1\n", GraphFormatError, "line 4: self-loop at node 1", 4),
    ("n 3\n# c\n0 1 1\n1 2 0\n", DomainError,
     "line 4: edge (1, 2) needs a positive finite weight, got 0.0", 4),
    ("n 3\r\n0 1 1\r\n1 1 1\r\n", GraphFormatError, "line 3: self-loop at node 1", 3),
    ("n 3\n0\t1\t1\n1 1 1\n", GraphFormatError, "line 3: self-loop at node 1", 3),
    # the first defective line wins, whatever its kind
    ("n 4\n0 1 1\n2 2 1\n0 1\n", GraphFormatError, "line 3: self-loop at node 2", 3),
    ("n 4\n0 1\n2 2 1\n", GraphFormatError, "line 2: expected `u v w`", 2),
    ("n 4\n0 9 1\n1 x 1\n", GraphFormatError,
     "line 2: edge (0, 9) needs 0 <= u < v < 4", 2),
    ("n 4\n1 x 1\n0 9 1\n", GraphFormatError, "line 2: cannot parse edge line '1 x 1'", 2),
    ("n 4\n0 1 -1\n2 2 1\n", DomainError,
     "line 2: edge (0, 1) needs a positive finite weight, got -1.0", 2),
    ("n 4\n2 2 -1\n0 1 -1\n", GraphFormatError, "line 2: self-loop at node 2", 2),
    ("n 4\n0 1 1\n0 1 1\n9 9 1\n", GraphFormatError, "line 3: duplicate edge (0, 1)", 3),
]


class TestParseErrors:
    @pytest.mark.parametrize("text, kind, message, line", MALFORMED_FILES)
    def test_message_and_line_kept(self, text, kind, message, line):
        with pytest.raises(kind) as excinfo:
            parse_graph(text)
        assert type(excinfo.value) is kind
        assert str(excinfo.value) == message
        assert getattr(excinfo.value, "line", None) == line
