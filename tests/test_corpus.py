import tracemalloc

import numpy as np
import pytest

from sda.corpus import (
    AssociationMatrix,
    check_feature_alignment,
    load_association_matrix,
    load_disease_dag,
    load_feature_table,
    save_association_matrix,
    split_known_unknown,
)
from sda.errors import DataError
from sda.synth import make_block_dataset


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestAssociationMatrix:
    def test_identity_pattern_two_positives(self, tmp_path):
        p = write(tmp_path / "am.csv", ",d1,d2\ns1,1,0\ns2,0,1\n")
        am = load_association_matrix(p)
        assert am.snorna_ids == ["s1", "s2"]
        assert am.disease_ids == ["d1", "d2"]
        assert am.n_known == 2
        pos, neg = split_known_unknown(am)
        assert len(pos) == 2 and len(neg) == 2

    def test_non_binary_cell_names_row_and_column(self, tmp_path):
        p = write(tmp_path / "am.csv", ",d1,d2\ns1,1,2\n")
        with pytest.raises(DataError, match=r"'2' at row 's1', column 'd2'"):
            load_association_matrix(p)

    def test_duplicate_id_rejected(self, tmp_path):
        p = write(tmp_path / "am.csv", ",d1,d2\ns1,1,0\ns1,0,1\n")
        with pytest.raises(DataError, match="duplicate snoRNA id 's1'"):
            load_association_matrix(p)
        p2 = write(tmp_path / "am2.csv", ",d1,d1\ns1,1,0\n")
        with pytest.raises(DataError, match="duplicate disease id 'd1'"):
            load_association_matrix(p2)

    def test_ragged_row_rejected(self, tmp_path):
        p = write(tmp_path / "am.csv", ",d1,d2\ns1,1\n")
        with pytest.raises(DataError, match=":2: row 's1' has 2 cells, expected 3"):
            load_association_matrix(p)

    def test_zero_positive_matrix_warns_then_errors_in_strict(self, tmp_path, caplog):
        p = write(tmp_path / "am.csv", ",d1\ns1,0\n")
        with caplog.at_level("WARNING"):
            am = load_association_matrix(p)
        assert am.n_known == 0
        assert any("no positive entries" in r.message for r in caplog.records)
        with pytest.raises(DataError):
            load_association_matrix(p, strict=True)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        am = AssociationMatrix(
            [f"s{i}" for i in range(7)],
            [f"d{j}" for j in range(5)],
            (rng.random((7, 5)) < 0.4).astype(np.int8),
        )
        path = tmp_path / "rt.csv"
        save_association_matrix(am, str(path))
        back = load_association_matrix(str(path))
        assert back.snorna_ids == am.snorna_ids
        assert back.disease_ids == am.disease_ids
        assert np.array_equal(back.entries, am.entries)

    def test_loading_is_pure(self, tmp_path):
        p = write(tmp_path / "am.csv", ",d1,d2\ns1,1,0\ns2,0,1\n")
        a, b = load_association_matrix(p), load_association_matrix(p)
        assert a.snorna_ids == b.snorna_ids
        assert np.array_equal(a.entries, b.entries)


class TestFeatureTable:
    def test_single_row_infers_width_from_header(self, tmp_path):
        p = write(tmp_path / "ft.csv", ",f1,f2,f3\ns1,0.5,1.0,2.5\n")
        ft = load_feature_table(p)
        assert ft.n_features == 3
        assert ft.snorna_ids == ["s1"]
        assert np.allclose(ft.features, [[0.5, 1.0, 2.5]])

    def test_tsv_delimiter_by_extension(self, tmp_path):
        p = write(tmp_path / "ft.tsv", "\tf1\tf2\ns1\t1.0\t2.0\ns2\t3.0\t4.0\n")
        ft = load_feature_table(p)
        assert ft.features.shape == (2, 2)

    def test_text_in_numeric_field_rejected(self, tmp_path):
        p = write(tmp_path / "ft.csv", ",f1,f2\ns1,1.0,oops\n")
        with pytest.raises(DataError, match="non-numeric cell 'oops'"):
            load_feature_table(p)

    def test_nan_rejected(self, tmp_path):
        p = write(tmp_path / "ft.csv", ",f1\ns1,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_feature_table(p)

    def test_alignment_report_lists_missing_ids(self, tmp_path, caplog):
        am = load_association_matrix(
            write(tmp_path / "am.csv", ",d1\ns1,1\ns2,0\ns3,1\n")
        )
        ft = load_feature_table(write(tmp_path / "ft.csv", ",f1\ns1,1.0\n"))
        with caplog.at_level("WARNING"):
            missing = check_feature_alignment(ft, am)
        assert missing == ["s2", "s3"]
        with pytest.raises(DataError):
            check_feature_alignment(ft, am, strict=True)


class TestDiseaseDag:
    def test_two_leaf_toy_ancestors(self, tmp_path):
        p = write(tmp_path / "dag.csv", "A,R\nB,R\n")
        dag = load_disease_dag(p)
        assert dag.ancestors("A") == {"A", "R"}
        assert dag.ancestors("R") == {"R"}

    def test_cycle_named(self, tmp_path):
        p = write(tmp_path / "dag.csv", "A,B\nB,A\n")
        with pytest.raises(DataError, match="cycle"):
            load_disease_dag(p)

    def test_diamond_ancestors(self, tmp_path):
        # reachability by hand: D -> {B, C} -> A
        p = write(tmp_path / "dag.csv", "D,B\nD,C\nB,A\nC,A\n")
        dag = load_disease_dag(p)
        assert dag.ancestors("D") == {"D", "B", "C", "A"}

    def test_unknown_id_ancestors_raises(self, tmp_path):
        dag = load_disease_dag(write(tmp_path / "dag.csv", "A,R\n"))
        with pytest.raises(DataError, match="unknown disease id"):
            dag.ancestors("Z")


class TestSplit:
    def test_partition_is_exact_and_row_major(self):
        am = AssociationMatrix(
            ["s1", "s2"], ["d1", "d2", "d3"],
            np.array([[1, 0, 1], [0, 0, 1]], dtype=np.int8),
        )
        pos, neg = split_known_unknown(am)
        assert pos.dtype == neg.dtype == np.int64
        assert pos.tolist() == [[0, 0], [0, 2], [1, 2]]
        assert neg.tolist() == [[0, 1], [1, 0], [1, 1]]
        assert len(pos) + len(neg) == 6
        assert set(map(tuple, pos.tolist())).isdisjoint(map(tuple, neg.tolist()))

    def test_all_zero_matrix(self):
        am = AssociationMatrix(["s1"], ["d1", "d2"], np.zeros((1, 2), dtype=np.int8))
        pos, neg = split_known_unknown(am)
        assert pos.shape == (0, 2) and len(neg) == 2

    def test_all_one_matrix(self):
        am = AssociationMatrix(
            ["s1", "s2"], ["d1", "d2", "d3"], np.ones((2, 3), dtype=np.int8)
        )
        pos, neg = split_known_unknown(am)
        assert neg.shape == (0, 2) and len(pos) == 6

    def test_pair_arrays_hold_16_bytes_per_cell(self):
        """The two (n, 2) int64 arrays hold 16 bytes per cell between them,
        and building them peaks at a small multiple of that."""
        am, _ft, _dag = make_block_dataset(1000, 500, seed=3)
        n_cells = am.entries.size
        tracemalloc.start()
        try:
            pairs = split_known_unknown(am)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(p) for p in pairs) == n_cells
        assert held < 24 * n_cells
        assert peak < 48 * n_cells

    def test_descriptor_counts(self):
        am = AssociationMatrix(
            ["s1", "s2"], ["d1"], np.array([[1], [0]], dtype=np.int8)
        )
        assert (am.n_snornas, am.n_diseases, am.n_known) == (2, 1, 1)
