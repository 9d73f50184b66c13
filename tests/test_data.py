import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kcod.cluster import kmeans
from kcod.data import (
    Dataset,
    ROLE_IND,
    ROLE_OOD,
    SplitSpec,
    gen_blobs,
    load_assignments,
    load_jsonl,
    save_assignments,
    save_jsonl,
    split_ind_ood,
)
from kcod.errors import DataError, ParameterError, ParseError
from kcod.metrics import clustering_accuracy


class TestGenBlobs:
    def test_size_and_ids(self):
        ds = gen_blobs(classes=4, per_class=7, dim=3, center_scale=5.0, noise_sigma=1.0, seed=0)
        assert len(ds) == 28
        assert ds.dim == 3
        assert ds.ids[0] == "s00000" and ds.ids[-1] == "s00027"
        assert all(r == ROLE_IND for r in ds.roles)

    def test_deterministic(self):
        a = gen_blobs(3, 5, 4, 2.0, 0.5, seed=9)
        b = gen_blobs(3, 5, 4, 2.0, 0.5, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_noise_collapses_classes(self):
        ds = gen_blobs(3, 6, 4, 3.0, 0.0, seed=1)
        for c in range(3):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_centers_on_sphere(self):
        ds = gen_blobs(5, 40, 6, center_scale=8.0, noise_sigma=0.0, seed=2)
        radii = np.linalg.norm(ds.features[:: 40], axis=1)
        assert np.allclose(radii, 8.0, atol=1e-9)

    def test_separated_blobs_cluster_cleanly(self):
        ds = gen_blobs(5, 30, 8, center_scale=10.0, noise_sigma=1.0, seed=3)
        result = kmeans(ds.features, 5, seed=0)
        assert clustering_accuracy(result.assignments, ds.labels) >= 0.99

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            gen_blobs(1, 5, 4, 1.0, 1.0, 0)
        with pytest.raises(ParameterError):
            gen_blobs(3, 5, 1, 1.0, 1.0, 0)
        with pytest.raises(ParameterError):
            gen_blobs(3, 0, 4, 1.0, 1.0, 0)
        with pytest.raises(ParameterError):
            gen_blobs(3, 5, 4, 1.0, -0.1, 0)
        for center_scale, noise_sigma in ((np.nan, 1.0), (-np.inf, 1.0), (5.0, np.nan), (5.0, np.inf)):
            with pytest.raises(ParameterError):
                gen_blobs(3, 5, 4, center_scale, noise_sigma, 0)


class TestSplit:
    def test_ten_classes_ratio_point_three(self):
        ds = gen_blobs(10, 4, 3, 5.0, 1.0, seed=0)
        ind, ood = split_ind_ood(ds, SplitSpec(total_classes=10, ood_ratio=0.3, seed=0))
        assert ind.class_labels().size == 7
        assert ood.class_labels().size == 3
        assert len(ind) == 28 and len(ood) == 12
        assert all(r == ROLE_IND for r in ind.roles)
        assert all(r == ROLE_OOD for r in ood.roles)

    def test_same_seed_same_split(self):
        ds = gen_blobs(6, 3, 3, 5.0, 1.0, seed=0)
        spec = SplitSpec(total_classes=6, ood_ratio=0.5, seed=4)
        a_ind, a_ood = split_ind_ood(ds, spec)
        b_ind, b_ood = split_ind_ood(ds, spec)
        assert a_ind.ids == b_ind.ids
        assert a_ood.ids == b_ood.ids

    def test_partition_property(self):
        ds = gen_blobs(8, 5, 3, 5.0, 1.0, seed=0)
        ind, ood = split_ind_ood(ds, SplitSpec(total_classes=8, ood_ratio=0.5, seed=1))
        assert sorted(ind.ids + ood.ids) == sorted(ds.ids)
        assert not set(ind.class_labels()) & set(ood.class_labels())

    def test_too_few_on_one_side(self):
        ds = gen_blobs(4, 3, 3, 5.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            split_ind_ood(ds, SplitSpec(total_classes=4, ood_ratio=0.25, seed=0))

    def test_class_count_mismatch(self):
        ds = gen_blobs(4, 3, 3, 5.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            split_ind_ood(ds, SplitSpec(total_classes=5, ood_ratio=0.5, seed=0))


class TestJsonlRoundTrip:
    def test_fields_survive_exactly(self, tmp_path):
        ds = gen_blobs(3, 4, 5, 2.5, 0.7, seed=6)
        ds.roles = [ROLE_OOD if l == 2 else ROLE_IND for l in ds.labels]
        path = str(tmp_path / "data.jsonl")
        save_jsonl(ds, path)
        back = load_jsonl(path)
        assert back.ids == ds.ids
        assert np.array_equal(back.labels, ds.labels)
        assert back.roles == ds.roles
        assert np.array_equal(back.features, ds.features)

    def test_save_load_save_is_byte_stable(self, tmp_path):
        ds = gen_blobs(2, 3, 4, 1.0, 0.3, seed=7)
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        save_jsonl(ds, p1)
        save_jsonl(load_jsonl(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(load_jsonl(str(path))) == 0

    def test_missing_key_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "label": 0, "role": "ind", "features": [1.0]}\n'
            '{"id": "b", "label": 1, "role": "ind"}\n'
        )
        with pytest.raises(ParseError) as err:
            load_jsonl(str(path))
        assert err.value.line_no == 2
        assert "features" in str(err.value)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "label": 0, "role": "ind", "features": [1.0]}\n{oops\n')
        with pytest.raises(ParseError) as err:
            load_jsonl(str(path))
        assert err.value.line_no == 2

    def test_dim_mismatch_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "label": 0, "role": "ind", "features": [1.0, 2.0]}\n'
            '{"id": "b", "label": 0, "role": "ind", "features": [1.0]}\n'
        )
        with pytest.raises(DataError):
            load_jsonl(str(path))

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": 3, "label": 0, "role": "ind", "features": [1.0]}',
            '{"id": "a", "label": true, "role": "ind", "features": [1.0]}',
            '{"id": "a", "label": -1, "role": "ind", "features": [1.0]}',
            '{"id": "a", "label": 0, "role": "other", "features": [1.0]}',
            '{"id": "a", "label": 0, "role": "ind", "features": []}',
            '{"id": "a", "label": 0, "role": "ind", "features": [NaN]}',
            '{"id": "a", "label": 0, "role": "ind", "features": [[1.0]]}',
            '{"id": "a", "label": 0, "role": "ind", "features": ["x"]}',
            '{"id": "a", "label": 0, "role": "ind", "features": [1.0], "extra": 1}',
            "[1, 2]",
        ],
    )
    def test_bad_records_rejected(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ParseError) as err:
            load_jsonl(str(path))
        assert err.value.line_no == 1

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 40),
                st.sampled_from([ROLE_IND, ROLE_OOD]),
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=3,
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, rows):
        ds = Dataset(
            ids=[f"r{i}" for i in range(len(rows))],
            features=np.array([r[2] for r in rows], dtype=np.float64),
            labels=np.array([r[0] for r in rows], dtype=np.int64),
            roles=[r[1] for r in rows],
        )
        path = str(tmp_path_factory.mktemp("rt") / "data.jsonl")
        save_jsonl(ds, path)
        back = load_jsonl(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.roles == ds.roles


class TestAssignments:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "assign.jsonl")
        save_assignments(["a", "b", "c"], np.array([2, 0, 2]), path)
        ids, clusters = load_assignments(path)
        assert ids == ["a", "b", "c"]
        assert clusters.tolist() == [2, 0, 2]

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ParameterError):
            save_assignments(["a"], np.array([1, 2]), str(tmp_path / "x.jsonl"))

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": "a"}',
            '{"id": "a", "cluster": 1, "label": 0}',
            '{"id": 1, "cluster": 0}',
            '{"id": "a", "cluster": -1}',
            '{"id": "a", "cluster": true}',
            '{"id": "a", "cluster": 1.5}',
        ],
    )
    def test_bad_lines_rejected(self, tmp_path, line):
        path = tmp_path / "assign.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ParseError) as err:
            load_assignments(str(path))
        assert err.value.line_no == 1
