"""Dataset file round-trips, validation, and the synthetic generators."""

import json

import numpy as np
import pytest

from gumbelmap.datasets import (
    dataset_digest,
    read_dataset,
    read_weights,
    write_dataset,
    write_weights,
)
from gumbelmap.errors import (DatasetError, InternalInvariantError,
                              StructuralError)
from gumbelmap.exact import _forward, forward_backward_marginals
from gumbelmap.gumbel import TAG_DATA, stream
from gumbelmap.model import (
    FeatureInstance,
    WeightLayout,
    WeightVector,
    chain_model,
    compile_potentials,
    grid_model,
)
from gumbelmap.synth import (_apply_label_noise, _inverse_cdf_draw,
                             gen_chain_dataset, gen_grid_dataset)


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


    @pytest.mark.parametrize("field, value", [
        ("num_vars", 4.0), ("label_counts", [2, 2, 2.0, 2]),
        ("edges", [[0.9, 1.2], [1, 2], [2, 3]]), ("edges", [[0, True]]),
        ("labels", [1.7, 0, 1, None]), ("labels", [1, 0, True, None])])
    def test_non_integer_index_reports_line(self, tmp_path, field, value):
        """Indices are JSON integers, and labels may be null: a fractional
        or boolean one is an input error at its line, not truncated to an
        index (the edges [[0.9, 1.2], ...] used to read as (0, 1))."""
        rec = {"num_vars": 4, "label_counts": [2] * 4,
               "edges": [[0, 1], [1, 2], [2, 3]],
               "node_features": [[1.0]] * 4, "edge_features": [[1.0]] * 3,
               "labels": [1, 0, None, 1], "volumes": [1.0] * 4}
        bad = dict(rec, **{field: value})
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DatasetError,
                           match=f"^line 2: {field} must hold integers$"):
            read_dataset(str(path))
        path.write_text(json.dumps(rec) + "\n")
        assert read_dataset(str(path))[0].labels.tolist() == [1, 0, -1, 1]


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

    def test_dataset_digest_golden(self, tmp_path):
        """The bytes of one generated chain file, recorded when the forward
        sums came from SciPy's logsumexp: they pin the FFBS labels."""
        data, _ = gen_chain_dataset(20, 8, 3, 4, seed=3, teacher_seed=7)
        path = tmp_path / "chain.jsonl"
        write_dataset(str(path), data)
        assert dataset_digest(str(path)) == (
            "1b970eb07ea7b45e053a9acfb6eb90fa7ee05851dc04f57b3d1346e69745b729")

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

    def test_draw_is_generator_choice(self):
        """The batched inverse-CDF draw picks, row by row, the label that
        ``Generator.choice(K, p=row)`` picks on the same stream: zero
        probabilities, exact ties, and mass near 1 at the first or last
        label.  This pins the coupling to numpy's ``choice``."""
        rng = np.random.default_rng(15)
        rows = []
        for k in (2, 3, 4, 7):
            rows.append(rng.normal(size=(300, k)) * 3.0)
            tied = rng.integers(-1, 2, size=(300, k)).astype(np.float64)
            rows.append(tied)
            zero = rng.normal(size=(300, k))
            zero[rng.random(zero.shape) < 0.4] = -np.inf
            zero[np.arange(300), rng.integers(0, k, size=300)] = 0.0
            rows.append(zero)
            for at in (0, k - 1):  # mass 1 - ~1e-13 at one end
                near = rng.normal(size=(150, k))
                near[:, at] += 30.0
                rows.append(near)
        for scores in rows:
            prob = np.exp(scores - scores.max(axis=1, keepdims=True))
            prob /= prob.sum(axis=1, keepdims=True)
            ref_rng, rng_b = (np.random.Generator(np.random.Philox(7))
                              for _ in range(2))
            expected = [ref_rng.choice(scores.shape[1], p=row) for row in prob]
            got = _inverse_cdf_draw(scores, rng_b.random(len(scores)))
            assert got.tolist() == expected
            # a uniform on a cdf entry counts that entry, as
            # searchsorted(side="right") does
            cdf = np.cumsum(prob, axis=1)
            cdf /= cdf[:, -1:]
            for j in range(scores.shape[1] - 1):
                want = [int(np.searchsorted(c, c[j], side="right"))
                        for c in cdf]
                assert _inverse_cdf_draw(scores, cdf[:, j]).tolist() == want

    def test_draw_refuses_nan_rows(self):
        scores = np.array([[0.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(InternalInvariantError):
            _inverse_cdf_draw(scores, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("num_vars,num_labels,label_noise,scale", [
        (8, 3, 0.0, 1.0), (1, 3, 0.0, 1.0), (5, 2, 0.4, 1.0),
        (6, 4, 0.4, 30.0), (4, 9, 0.0, 3.0)])
    def test_matches_per_chain_reference(self, num_vars, num_labels,
                                         label_noise, scale):
        """Every feature and label equals the per-chain sampler: each
        chain's stream draws its features, then one ``choice`` per
        variable from the last to the first, then its label noise."""
        data, teacher = gen_chain_dataset(25, num_vars, num_labels, 3, seed=4,
                                          teacher_seed=8, teacher_scale=scale,
                                          label_noise=label_noise)
        for i, x in enumerate(data):
            rng = stream(4, i + 1, 0, TAG_DATA)
            nf = rng.normal(size=(num_vars, 3))
            p = compile_potentials(teacher, FeatureInstance(
                x.model, nf, np.ones((num_vars - 1, 1))))
            alphas = _forward(p.unary, p.pairwise)
            y = np.zeros(num_vars, dtype=np.int64)
            sc = alphas[-1]
            for d in range(num_vars - 1, -1, -1):
                if d < num_vars - 1:
                    sc = alphas[d] + p.pairwise[d, :, y[d + 1]]
                prob = np.exp(sc - sc.max())
                prob /= prob.sum()
                y[d] = rng.choice(num_labels, p=prob)
            y = _apply_label_noise(y, num_labels, label_noise, rng)
            assert nf.tobytes() == x.node_features.tobytes()
            assert y.tolist() == x.labels.tolist()

    @pytest.mark.parametrize("gen,shape", [(gen_chain_dataset, (4, 3, 2)),
                                           (gen_grid_dataset, (4, 2))])
    def test_overflowing_teacher_refused(self, gen, shape):
        """A finite scale whose teacher, tables or forward sums overflow is
        a configuration error, not NaN probabilities or an infinite
        teacher."""
        for scale in (1e308, 8e307):
            with pytest.raises(StructuralError, match="not finite"):
                gen(3, *shape, seed=0, teacher_scale=scale)

    @pytest.mark.parametrize("gen,shape", [(gen_chain_dataset, (4, 3, 2)),
                                           (gen_grid_dataset, (4, 2))])
    def test_negative_count_refused(self, gen, shape):
        with pytest.raises(StructuralError, match="negative"):
            gen(-1, *shape, seed=0)
        assert gen(0, *shape, seed=0)[0] == []


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
