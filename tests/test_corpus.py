import tracemalloc

import numpy as np
import pytest

from sda.corpus import (
    AssociationMatrix,
    DiseaseDag,
    check_feature_alignment,
    load_association_matrix,
    load_disease_dag,
    load_feature_table,
    read_table,
    save_association_matrix,
    split_known_unknown,
)
from sda.errors import DataError
from sda.similarity import semantic_contribution
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
        text = "\tf1\tf2\ns1\t1.0\t2.0\ns2\t3.0\t4.0\n"
        for name in ("ft.tsv", "ft.TSV"):
            ft = load_feature_table(write(tmp_path / name, text))
            assert ft.features.shape == (2, 2)
        # read as CSV, each line is one cell: snoRNA ids and no feature column
        with pytest.raises(DataError, match="no feature columns"):
            load_feature_table(write(tmp_path / "ft.csv", text))

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


class TestCellParsing:
    """A table's cells load, or fail, the same whether the table is
    converted whole or cell by cell: padded cells, each bad cell's message,
    and which of two faults is reported."""

    def test_padded_cells_load(self, tmp_path):
        am = load_association_matrix(write(tmp_path / "am.csv", ",d1,d2\ns1, 1,0 \ns2,0,1\n"))
        assert am.entries.dtype == np.int8
        assert am.entries.tolist() == [[1, 0], [0, 1]]
        ft = load_feature_table(write(tmp_path / "ft.csv", ",f1,f2\ns1, 0.25 ,1\n"))
        assert ft.features.tolist() == [[0.25, 1.0]]

    @pytest.mark.parametrize("cells, cell, reason", [
        ("0/1", "2", "non-binary"),
        ("0/1", "01", "non-binary"),
        ("0/1", "+1", "non-binary"),
        ("0/1", "abc", "non-binary"),
        ("finite", "abc", "non-numeric"),
        ("finite", "nan", "non-finite"),
    ])
    def test_bad_cell_names_line_row_column_and_reason(self, tmp_path, cells, cell, reason):
        path = write(tmp_path / "t.csv", f",a,b\nx,0,1\ny,1,{cell}\nz,1,0\n")
        with pytest.raises(DataError) as info:
            read_table(path, cells)
        assert str(info.value) == f"{path}:3: {reason} cell '{cell}' at row 'y', column 'b'"

    @pytest.mark.parametrize("cells", ["0/1", "finite"])
    def test_earlier_bad_cell_reported_before_later_cell_count(self, tmp_path, cells):
        path = write(tmp_path / "t.csv", ",a,b\nx,0,1\ny,abc,0\nz,1\n")
        with pytest.raises(DataError, match=r":3: non-\w+ cell 'abc' at row 'y', column 'a'$"):
            read_table(path, cells)

    def test_conversion_matches_float_bit_for_bit(self, tmp_path):
        cells = ["1_0", "-0", "1e-320", "Infinity", " 5 "]
        path = write(tmp_path / "t.csv", ",a,b,c,d,e\nx," + ",".join(cells) + "\n")
        _, _, values = read_table(path, "number")
        assert values.dtype == np.float64
        assert values.tobytes() == np.array([[float(c) for c in cells]]).tobytes()


def ancestors(dag, node):
    # the ancestor closure is the key set of the node's semantic contribution
    return set(semantic_contribution(dag, node))


class TestDiseaseDag:
    def test_two_leaf_toy_ancestors(self, tmp_path):
        p = write(tmp_path / "dag.csv", "A,R\nB,R\n")
        dag = load_disease_dag(p)
        assert ancestors(dag, "A") == {"A", "R"}
        assert ancestors(dag, "R") == {"R"}

    def test_cycle_named(self, tmp_path):
        # the message names each node of the cycle once, and no other node
        for text, nodes in [
            ("A,B\nB,A\n", {"A", "B"}),
            ("A,A\n", {"A"}),
            ("X,A\nA,B\nB,C\nC,A\n", {"A", "B", "C"}),  # a cycle behind a tail
        ]:
            p = write(tmp_path / "dag.csv", text)
            with pytest.raises(DataError, match="cycle") as info:
                load_disease_dag(p)
            cycle = str(info.value).split("cycle: ")[1].split(" -> ")
            assert cycle[0] == cycle[-1] and len(cycle) == len(nodes) + 1
            assert set(cycle) == nodes
            edges = {tuple(row.split(",")) for row in text.split()}
            assert all(step in edges for step in zip(cycle, cycle[1:]))  # child -> parent

    def test_diamond_ancestors(self, tmp_path):
        # reachability by hand: D -> {B, C} -> A
        p = write(tmp_path / "dag.csv", "D,B\nD,C\nB,A\nC,A\n")
        dag = load_disease_dag(p)
        assert ancestors(dag, "D") == {"D", "B", "C", "A"}

    def test_cycle_in_constructor_raises(self):
        with pytest.raises(DataError, match="cycle"):
            DiseaseDag(["A", "B"], [("A", "B"), ("B", "A")])


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
