import math

import networkx as nx
import numpy as np
import pytest

from sda.corpus import DiseaseDag, FeatureTable, write_table
from sda.errors import DataError, NumericError
from sda.similarity import (
    disease_semantic_similarity,
    gip_bandwidth,
    gip_similarity,
    load_similarity_matrix,
    mesh_similarity,
    reindex,
    semantic_contribution,
    snorna_functional_similarity,
)
from sda.util import fmt_float


def cosine_similarity(u, v):
    """The off-diagonal cell of the functional similarity of rows u and v;
    None when it is undefined (nan)."""
    sim = snorna_functional_similarity(FeatureTable(["u", "v"], np.array([u, v], float)))
    return None if np.isnan(sim[0, 1]) else float(sim[0, 1])


class TestCosine:
    def test_identical_vectors(self):
        assert cosine_similarity([1, 2, 2], [1, 2, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_hand_value(self):
        # 4 / (sqrt(5) * sqrt(5)) = 0.8
        assert cosine_similarity([1, 2], [2, 1]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_norm_is_unavailable_not_zero(self):
        assert cosine_similarity([0, 0], [1, 2]) is None


class TestFunctionalSimilarity:
    def test_diagonal_one_for_nonzero_rows(self):
        ft = FeatureTable(["a", "b"], np.array([[1.0, 2.0], [3.0, 1.0]]))
        sim = snorna_functional_similarity(ft)
        assert sim[0, 0] == 1.0 and sim[1, 1] == 1.0
        assert not np.isnan(sim).any()

    def test_identical_rows_score_one(self):
        ft = FeatureTable(["a", "b"], np.array([[1.0, 2.0], [2.0, 4.0]]))
        sim = snorna_functional_similarity(ft)
        assert sim[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_missing_and_zero_rows_unavailable(self):
        ft = FeatureTable(["a", "z"], np.array([[1.0, 0.0], [0.0, 0.0]]))
        sim = snorna_functional_similarity(ft, ids=["a", "z", "q"])
        assert sim[0, 0] == 1.0
        assert np.isnan(sim[1, 1])  # zero norm
        assert np.isnan(sim[0, 2]) and np.isnan(sim[2, 2])  # absent id
        assert sim.shape == (3, 3)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(5)
        ft = FeatureTable([f"s{i}" for i in range(9)], rng.random((9, 6)))
        sim = snorna_functional_similarity(ft)
        assert np.array_equal(sim, sim.T)


def chain_dag(length):
    nodes = [f"n{i}" for i in range(length + 1)]
    edges = [(f"n{i}", f"n{i+1}") for i in range(length)]
    return DiseaseDag(nodes, edges)


class TestSemanticContribution:
    def test_self_contribution_is_one(self):
        dag = chain_dag(2)
        sc = semantic_contribution(dag, "n0", 0.5)
        assert sc["n0"] == 1.0

    def test_parent_gets_delta(self):
        sc = semantic_contribution(chain_dag(2), "n0", 0.5)
        assert sc["n1"] == 0.5

    def test_grandparent_gets_delta_squared(self):
        sc = semantic_contribution(chain_dag(2), "n0", 0.5)
        assert sc["n2"] == 0.25

    def test_chain_powers(self):
        k = 6
        sc = semantic_contribution(chain_dag(k), "n0", 0.5)
        for i in range(k + 1):
            assert sc[f"n{i}"] == pytest.approx(0.5**i, abs=1e-15)

    def test_defined_exactly_on_ancestor_closure(self):
        two_leaves = [("A", "R"), ("B", "R")]
        diamond = [("D", "B"), ("D", "C"), ("B", "A"), ("C", "A")]  # D -> {B, C} -> A
        for edges, node, closure in [
            (two_leaves, "A", {"A", "R"}),
            (two_leaves, "R", {"R"}),
            (diamond, "D", {"D", "B", "C", "A"}),
        ]:
            nodes = list(dict.fromkeys(n for edge in edges for n in edge))
            sc = semantic_contribution(DiseaseDag(nodes, edges), node, 0.5)
            assert set(sc) == closure

    def test_unknown_disease(self):
        with pytest.raises(DataError):
            semantic_contribution(chain_dag(1), "missing", 0.5)

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            semantic_contribution(chain_dag(1), "n0", 0.0)


def dss_oracle(dag: DiseaseDag, d1: str, d2: str, delta: float) -> float:
    """Independent route: ancestor sets by graph reachability, contributions
    as delta ** (shortest upward path), then the shared-ancestor ratio."""
    g = nx.DiGraph()
    g.add_nodes_from(dag.nodes)
    g.add_edges_from(dag.edges)  # child -> parent

    def contributions(d):
        anc = nx.descendants(g, d) | {d}
        dist = nx.shortest_path_length(g, source=d)
        return {a: delta ** dist[a] for a in anc}

    c1, c2 = contributions(d1), contributions(d2)
    shared = set(c1) & set(c2)
    num = sum(c1[a] + c2[a] for a in shared)
    den = sum(c1.values()) + sum(c2.values())
    return num / den


def random_dag(rng, max_nodes=12):
    n = int(rng.integers(2, max_nodes + 1))
    nodes = [f"t{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):  # edges only point to higher index: acyclic
            if rng.random() < 0.3:
                edges.append((nodes[i], nodes[j]))
    return DiseaseDag(nodes, edges)


class TestDiseaseSemanticSimilarity:
    def test_self_similarity_is_one(self):
        dag = chain_dag(3)
        sim = disease_semantic_similarity(dag, 0.5)
        assert np.all(np.diag(sim) == 1.0)

    def test_siblings_under_root(self):
        # hand evaluation: (0.5 + 0.5) / (1.5 + 1.5) = 1/3
        dag = DiseaseDag(["A", "B", "R"], [("A", "R"), ("B", "R")])
        sim = disease_semantic_similarity(dag, 0.5)
        i, j = dag.nodes.index("A"), dag.nodes.index("B")
        assert sim[i, j] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_disjoint_components_score_zero_but_available(self):
        dag = DiseaseDag(["A", "B", "X", "Y"], [("A", "B"), ("X", "Y")])
        sim = disease_semantic_similarity(dag, 0.5)
        i, j = dag.nodes.index("A"), dag.nodes.index("X")
        assert sim[i, j] == 0.0  # defined: 0, not nan

    def test_ids_missing_from_dag_unavailable(self):
        dag = chain_dag(1)
        sim = disease_semantic_similarity(dag, 0.5, ids=["n0", "n1", "zz"])
        assert np.isnan(sim[2, 2])
        assert not np.isnan(sim[0, 1])

    def test_matches_bruteforce_on_random_dags(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            dag = random_dag(rng)
            position = {node: i for i, node in enumerate(dag.order)}
            assert sorted(position) == sorted(dag.nodes) == sorted(dag.order)
            assert all(position[c] < position[p] for c, p in dag.edges)
            delta = float(rng.uniform(0.2, 1.0))
            sim = disease_semantic_similarity(dag, delta)
            for i, d1 in enumerate(dag.nodes):
                for j, d2 in enumerate(dag.nodes):
                    expect = dss_oracle(dag, d1, d2, delta)
                    assert sim[i, j] == pytest.approx(expect, abs=1e-12)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(9)
        dag = random_dag(rng)
        sim = disease_semantic_similarity(dag, 0.5)
        assert np.array_equal(sim, sim.T)

    def test_underflowed_contribution_still_shared(self):
        # r contributes 1e-600 -> 0.0 to a, yet is a shared ancestor of a
        # and b: (0.0 + 1e-300) / (1.0 + 1.0)
        dag = DiseaseDag(["a", "m", "r", "b"], [("a", "m"), ("m", "r"), ("b", "r")])
        sim = disease_semantic_similarity(dag, 1e-300)
        assert semantic_contribution(dag, "a", 1e-300)["r"] == 0.0
        assert sim[0, 3] == 5e-301


class TestGip:
    def test_bandwidth_basis_profiles(self):
        gamma = gip_bandwidth(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)
        assert gamma == pytest.approx(1.0, abs=1e-15)

    def test_bandwidth_linear_in_gamma_prime(self):
        profiles = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert gip_bandwidth(profiles, 2.0) == pytest.approx(
            2.0 * gip_bandwidth(profiles, 1.0), rel=1e-15
        )

    def test_all_zero_profiles_degenerate(self):
        with pytest.raises(NumericError, match="degenerate"):
            gip_bandwidth(np.zeros((3, 4)))

    def test_identical_profiles_score_one(self):
        profiles = np.array([[1.0, 0.0], [1.0, 0.0]])
        gip = gip_similarity(profiles, gip_bandwidth(profiles))
        assert gip[0, 1] == 1.0

    def test_identity_profiles_hand_value(self):
        # ||(1,0)-(0,1)||^2 = 2, gamma = 1 -> exp(-2)
        profiles = np.array([[1.0, 0.0], [0.0, 1.0]])
        gip = gip_similarity(profiles, gip_bandwidth(profiles, 1.0))
        assert gip[0, 1] == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_diagonal_is_one_and_all_available(self):
        rng = np.random.default_rng(2)
        profiles = (rng.random((6, 5)) < 0.4).astype(float)
        profiles[0] = 1.0  # keep norms nonzero overall
        gip = gip_similarity(profiles, gip_bandwidth(profiles))
        assert np.all(np.diag(gip) == 1.0)
        assert np.all(gip > 0.0)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(3)
        profiles = (rng.random((5, 7)) < 0.5).astype(float)
        lo = gip_similarity(profiles, 0.3)
        hi = gip_similarity(profiles, 0.9)
        off = ~np.eye(5, dtype=bool)
        assert np.all(hi[off] <= lo[off] + 1e-15)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(4)
        profiles = (rng.random((8, 6)) < 0.5).astype(float)
        profiles[0, 0] = 1.0
        gip = gip_similarity(profiles, gip_bandwidth(profiles))
        assert np.array_equal(gip, gip.T)


class TestMesh:
    def test_mean_branch(self):
        base = np.array([[1.0, 0.8], [0.8, 1.0]])
        gip = np.array([[1.0, 0.4], [0.4, 1.0]])
        out = mesh_similarity(base, gip)
        assert out[0, 1] == pytest.approx(0.6, abs=1e-15)

    def test_unavailable_branch_takes_gip(self):
        base = np.array([[1.0, np.nan], [np.nan, 1.0]])
        gip = np.array([[1.0, 0.4], [0.4, 1.0]])
        out = mesh_similarity(base, gip)
        assert out[0, 1] == 0.4

    def test_no_base_is_the_gip_kernel(self):
        gip = np.array([[1.0, 0.4], [0.4, 1.0]])
        assert mesh_similarity(None, gip) is gip

    def test_base_equal_gip_is_identity(self):
        vals = [[1.0, 0.3], [0.3, 1.0]]
        out = mesh_similarity(np.array(vals), np.array(vals))
        assert np.array_equal(out, np.asarray(vals))

    def test_negative_base_clamped_to_zero(self):
        base = np.array([[1.0, -0.5], [-0.5, 1.0]])
        gip = np.array([[1.0, 0.4], [0.4, 1.0]])
        out = mesh_similarity(base, gip)
        assert out[0, 1] == pytest.approx(0.2, abs=1e-15)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="differ in shape"):
            mesh_similarity(np.eye(2), np.eye(3))


class TestSerialization:
    def test_round_trip_with_mask(self, tmp_path):
        rng = np.random.default_rng(8)
        vals = rng.random((4, 4))
        vals = (vals + vals.T) / 2
        avail = np.ones((4, 4), dtype=bool)
        avail[0, 3] = avail[3, 0] = False
        ids = [f"x{i}" for i in range(4)]
        path = str(tmp_path / "sim.csv")
        write_table(path, ids, ids, vals, fmt_float)
        write_table(str(tmp_path / "sim.mask.csv"), ids, ids, avail.astype(np.int8))
        back_ids, back = load_similarity_matrix(path)
        assert back_ids == ids
        assert np.array_equal(back[avail], vals[avail])
        assert np.isnan(back[~avail]).all()  # a 0 in the mask reads back as nan

    def test_missing_mask_means_fully_available(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text(",a,b\na,1.0,0.5\nb,0.5,1.0\n", encoding="utf-8")
        _, back = load_similarity_matrix(str(path))
        assert not np.isnan(back).any()

    def _with_mask(self, tmp_path, mask_text):
        path = tmp_path / "sim.csv"
        path.write_text(",a,b\na,1.0,0.5\nb,0.5,1.0\n", encoding="utf-8")
        (tmp_path / "sim.mask.csv").write_text(mask_text, encoding="utf-8")
        return str(path)

    def test_mask_with_extra_row_rejected(self, tmp_path):
        path = self._with_mask(tmp_path, ",a,b\na,1,1\nb,1,1\nc,1,1\n")
        with pytest.raises(DataError, match="row ids"):
            load_similarity_matrix(path)

    def test_mask_with_short_row_rejected(self, tmp_path):
        path = self._with_mask(tmp_path, ",a,b\na,1,1\nb,1\n")
        with pytest.raises(DataError, match=":3: row 'b' has 2 cells"):
            load_similarity_matrix(path)

    def test_mask_with_mismatched_id_rejected(self, tmp_path):
        path = self._with_mask(tmp_path, ",a,c\na,1,1\nc,1,1\n")
        with pytest.raises(DataError, match="ids do not match"):
            load_similarity_matrix(path)

    def test_mask_with_non_flag_cell_rejected(self, tmp_path):
        path = self._with_mask(tmp_path, ",a,b\na,1,yes\nb,yes,1\n")
        with pytest.raises(DataError, match="non-binary cell 'yes'"):
            load_similarity_matrix(path)

    def test_values_with_extra_row_rejected(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text(",a,b\na,1.0,0.5\nb,0.5,1.0\nc,0.1,0.2\n", encoding="utf-8")
        with pytest.raises(DataError, match="row ids"):
            load_similarity_matrix(str(path))

    def _load(self, tmp_path, values_text, mask_text=None):
        path = tmp_path / "sim.csv"
        path.write_text(values_text, encoding="utf-8")
        if mask_text is not None:
            (tmp_path / "sim.mask.csv").write_text(mask_text, encoding="utf-8")
        return load_similarity_matrix(str(path))

    def test_asymmetric_values_rejected(self, tmp_path):
        with pytest.raises(DataError, match="similarity values are not symmetric"):
            self._load(tmp_path, ",a,b\na,1.0,0.5\nb,0.4,1.0\n")

    def test_asymmetric_mask_rejected(self, tmp_path):
        with pytest.raises(DataError, match="availability mask is not symmetric"):
            self._load(tmp_path, ",a,b\na,1.0,0.5\nb,0.5,1.0\n", ",a,b\na,1,0\nb,1,1\n")

    def test_non_finite_defined_cell_rejected(self, tmp_path):
        with pytest.raises(DataError, match="non-finite available values"):
            self._load(tmp_path, ",a,b\na,1.0,inf\nb,inf,1.0\n", ",a,b\na,1,1\nb,1,1\n")

    def test_non_finite_undefined_cell_loads(self, tmp_path):
        _, values = self._load(
            tmp_path, ",a,b\na,1.0,inf\nb,inf,1.0\n", ",a,b\na,1,0\nb,0,1\n"
        )
        assert np.isnan(values[0, 1]) and np.isnan(values[1, 0])

    @pytest.mark.parametrize("mask", ["1", "0"])
    def test_nan_cell_is_not_symmetric(self, tmp_path, mask):
        # nan never equals itself, so a nan cell fails the symmetry check
        with pytest.raises(DataError, match="similarity values are not symmetric"):
            self._load(
                tmp_path, ",a,b\na,1.0,nan\nb,nan,1.0\n",
                f",a,b\na,1,{mask}\nb,{mask},1\n",
            )

    def test_reindex_marks_missing_unavailable(self):
        out = reindex(["a", "b"], np.array([[1.0, 0.5], [0.5, 1.0]]), ["b", "q", "a"])
        assert out[0, 2] == 0.5
        assert out[0, 0] == 1.0
        assert np.isnan(out[1]).all() and np.isnan(out[:, 1]).all()
