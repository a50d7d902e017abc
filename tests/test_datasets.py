"""Dataset file round-trips, validation, and the synthetic generators."""

import numpy as np
import pytest

from gumbelmap.datasets import (
    dataset_digest,
    read_dataset,
    read_weights,
    write_dataset,
    write_weights,
)
from gumbelmap.errors import DatasetError
from gumbelmap.exact import forward_backward_marginals
from gumbelmap.model import (
    FeatureInstance,
    WeightLayout,
    WeightVector,
    chain_model,
    compile_potentials,
    grid_model,
)
from gumbelmap.synth import gen_chain_dataset, gen_grid_dataset


def _mixed_instances(rng):
    chain = chain_model(4, 3)
    grid = grid_model(2, 3)
    return [
        FeatureInstance(chain, rng.normal(size=(4, 2)), np.ones((3, 1)),
                        np.array([0, 2, 1, 0]), np.array([1.0, 2.0, 0.5, 1.0])),
        FeatureInstance(grid, rng.normal(size=(6, 2)), np.ones((7, 1)),
                        np.array([1, -1, 0, -1, 1, 0])),
        FeatureInstance(chain, rng.normal(size=(4, 2)), np.ones((3, 1))),
    ]


class TestRoundTrip:
    def test_write_read_write_byte_identical(self, rng, tmp_path):
        instances = _mixed_instances(rng)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_dataset(str(p1), instances)
        write_dataset(str(p2), read_dataset(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_preserves_content(self, rng, tmp_path):
        instances = _mixed_instances(rng)
        path = tmp_path / "d.jsonl"
        write_dataset(str(path), instances)
        back = read_dataset(str(path))
        assert len(back) == 3
        assert back[0].model == instances[0].model
        assert np.array_equal(back[0].labels, instances[0].labels)
        assert np.array_equal(back[0].node_volumes, instances[0].node_volumes)
        assert np.array_equal(back[1].labels, instances[1].labels)  # -1 kept
        assert back[2].labels is None or np.all(back[2].labels == -1)
        assert np.array_equal(back[1].node_features, instances[1].node_features)

    def test_chain_structure_recognized(self, rng, tmp_path):
        path = tmp_path / "c.jsonl"
        write_dataset(str(path), _mixed_instances(rng))
        back = read_dataset(str(path))
        assert back[0].model.is_chain
        assert not back[1].model.is_chain

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset(str(path), [])
        assert read_dataset(str(path)) == []

    def test_digest_stable(self, rng, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset(str(path), _mixed_instances(rng))
        assert dataset_digest(str(path)) == dataset_digest(str(path))


class TestValidation:
    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"num_vars": 2}\n')
        with pytest.raises(DatasetError, match="line 1"):
            read_dataset(str(path))

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = ('{"num_vars": 1, "label_counts": [2], "edges": [], '
                '"node_features": [[1.0]], "edge_features": [], '
                '"labels": [0], "volumes": [1.0]}')
        path.write_text(good + "\n{oops\n")
        with pytest.raises(DatasetError, match="line 2"):
            read_dataset(str(path))

    def test_label_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = ('{"num_vars": 1, "label_counts": [2], "edges": [], '
               '"node_features": [[1.0]], "edge_features": [], '
               '"labels": [5], "volumes": [1.0]}')
        path.write_text(rec + "\n")
        with pytest.raises(DatasetError, match="line 1"):
            read_dataset(str(path))


class TestWeightsArtifact:
    def test_roundtrip(self, rng, tmp_path):
        layout = WeightLayout(3, 4, 2, "full")
        w = WeightVector(rng.normal(size=layout.total_size), layout)
        path = tmp_path / "w.json"
        write_weights(str(path), w, last_iterate=w)
        back = read_weights(str(path))
        assert back.layout == layout
        assert np.array_equal(back.values, w.values)

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"something": 1}')
        with pytest.raises(DatasetError):
            read_weights(str(path))


class TestChainGenerator:
    def test_deterministic(self, tmp_path):
        a, ta = gen_chain_dataset(5, 6, 3, 2, seed=4, teacher_seed=9)
        b, tb = gen_chain_dataset(5, 6, 3, 2, seed=4, teacher_seed=9)
        assert np.array_equal(ta.values, tb.values)
        for xa, xb in zip(a, b):
            assert np.array_equal(xa.node_features, xb.node_features)
            assert np.array_equal(xa.labels, xb.labels)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(str(p1), a)
        write_dataset(str(p2), b)
        assert p1.read_bytes() == p2.read_bytes()

    def test_teacher_pairwise_nonpositive(self):
        _, teacher = gen_chain_dataset(1, 4, 3, 2, seed=1, teacher_seed=1)
        assert np.all(teacher.values[teacher.pairwise_block] <= 0)

    def test_teacher_beats_random_predictor(self):
        """The teacher's marginal argmax must beat uniform-random labels:
        the labels really come from the teacher distribution."""
        data, teacher = gen_chain_dataset(60, 6, 3, 3, seed=2, teacher_seed=2)
        rng = np.random.default_rng(0)
        bayes, rand = 0.0, 0.0
        for x in data:
            q = forward_backward_marginals(compile_potentials(teacher, x))
            bayes += float((q.argmax(axis=1) != x.labels).mean())
            rand += float((rng.integers(0, 3, size=6) != x.labels).mean())
        assert bayes / 60 < rand / 60 - 0.1

    def test_label_noise_increases_bayes_loss(self):
        d0, teacher = gen_chain_dataset(60, 6, 3, 3, seed=5, teacher_seed=5)
        d1, _ = gen_chain_dataset(60, 6, 3, 3, seed=5, teacher=teacher,
                                  label_noise=0.4)
        def bayes(data):
            tot = 0.0
            for x in data:
                q = forward_backward_marginals(compile_potentials(teacher, x))
                tot += float((q.argmax(axis=1) != x.labels).mean())
            return tot / len(data)
        assert bayes(d1) > bayes(d0)


class TestGridGenerator:
    def test_nondegenerate_binary_labels(self):
        data, teacher = gen_grid_dataset(10, 4, 3, seed=7, teacher_seed=7)
        for x in data:
            assert 0 < x.labels.sum() < x.model.num_vars
            assert set(np.unique(x.labels)) <= {0, 1}

    def test_compiles_supermodular(self):
        from gumbelmap.cuts import build_cut_problem
        data, teacher = gen_grid_dataset(3, 4, 3, seed=8, teacher_seed=8)
        for x in data:
            build_cut_problem(compile_potentials(teacher, x))  # must not raise
