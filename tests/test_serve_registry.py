"""Model artifacts and the versioned registry (repro.serve.registry)."""

import json
import zipfile

import numpy as np
import pytest

from repro.data import SyntheticSpec, generate
from repro.glm import (ArtifactError, GLMModel, Objective,
                       read_artifact_meta)
from repro.glm.model import _artifact_digest
from repro.serve import ModelRegistry, RegistryError


@pytest.fixture()
def model():
    rng = np.random.default_rng(5)
    return GLMModel(weights=rng.normal(size=24),
                    objective=Objective("hinge", "l2", 0.1))


@pytest.fixture()
def dataset():
    return generate(SyntheticSpec(n_rows=120, n_features=24,
                                  nnz_per_row=6.0, seed=9), "reg-ds")


# ----------------------------------------------------------------------
# GLMModel.save / load
# ----------------------------------------------------------------------
class TestArtifactRoundTrip:
    def test_weights_and_objective_round_trip(self, tmp_path, model):
        path = model.save(tmp_path / "m.npz",
                          provenance={"dataset": "reg-ds", "seed": 5})
        loaded = GLMModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.weights.dtype == model.weights.dtype
        assert loaded.objective.describe() == model.objective.describe()

    def test_round_trip_preserves_predictions_bit_exactly(
            self, tmp_path, model, dataset):
        loaded = GLMModel.load(model.save(tmp_path / "m"))
        assert np.array_equal(loaded.decision_function(dataset.X),
                              model.decision_function(dataset.X))
        assert (loaded.objective_value(dataset.X, dataset.y)
                == model.objective_value(dataset.X, dataset.y))

    def test_npz_suffix_appended(self, tmp_path, model):
        path = model.save(tmp_path / "bare")
        assert path.name == "bare.npz"
        assert GLMModel.load(tmp_path / "bare").dim == model.dim

    def test_provenance_stored(self, tmp_path, model):
        path = model.save(tmp_path / "m", provenance={"system": "MLlib*"})
        meta = read_artifact_meta(path)
        assert meta["provenance"] == {"system": "MLlib*"}
        assert meta["objective"] == {"loss": "hinge", "regularizer": "l2",
                                     "strength": 0.1}

    def test_unregularized_objective_round_trips(self, tmp_path):
        model = GLMModel(weights=np.ones(4), objective=Objective("logistic"))
        loaded = GLMModel.load(model.save(tmp_path / "m"))
        assert loaded.objective.describe() == "logistic+none(0)"


class TestArtifactVerification:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="no model artifact"):
            GLMModel.load(tmp_path / "nope.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip file")
        with pytest.raises(ArtifactError):
            GLMModel.load(path)

    def test_non_artifact_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ArtifactError, match="no 'meta' entry"):
            GLMModel.load(path)

    def test_tampered_weights_fail_digest(self, tmp_path, model):
        path = model.save(tmp_path / "m.npz")
        with np.load(path, allow_pickle=False) as data:
            weights, meta = np.array(data["weights"]), data["meta"]
            weights[0] += 1.0e-9  # a single flipped low-order bit region
            np.savez(path, weights=weights, meta=meta)
        with pytest.raises(ArtifactError, match="digest mismatch"):
            GLMModel.load(path)

    def test_tampered_metadata_fails_digest(self, tmp_path, model):
        path = model.save(tmp_path / "m.npz")
        with np.load(path, allow_pickle=False) as data:
            weights = np.array(data["weights"])
            meta = json.loads(str(data["meta"][()]))
        meta["provenance"]["dataset"] = "forged"
        np.savez(path, weights=weights, meta=np.array(json.dumps(meta)))
        with pytest.raises(ArtifactError, match="digest mismatch"):
            GLMModel.load(path)

    def test_dimension_mismatch(self, tmp_path, model):
        path = model.save(tmp_path / "m.npz")
        with np.load(path, allow_pickle=False) as data:
            weights, meta = np.array(data["weights"]), data["meta"]
        np.savez(path, weights=weights[:-1], meta=meta)
        with pytest.raises(ArtifactError, match="dimension mismatch"):
            GLMModel.load(path)

    def test_truncated_zip(self, tmp_path, model):
        path = model.save(tmp_path / "m.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ArtifactError):
            GLMModel.load(path)

    @pytest.mark.parametrize("objective", [
        {"loss": "squared_hinge", "regularizer": "l2", "strength": 0.1},
        {"loss": "hinge", "regularizer": "l1", "strength": 0.1},
    ], ids=["squared_hinge", "l1"])
    def test_unknown_objective_fails_cleanly(self, tmp_path, model,
                                             objective):
        # A digest-valid artifact naming a loss or regularizer that no
        # longer exists must fail with ArtifactError, not a KeyError.
        path = model.save(tmp_path / "m.npz")
        meta = read_artifact_meta(path)
        del meta["digest"]
        meta["objective"] = objective
        meta["digest"] = _artifact_digest(model.weights, meta)
        np.savez(path, weights=model.weights,
                 meta=np.array(json.dumps(meta, sort_keys=True)))
        with pytest.raises(ArtifactError, match="cannot rebuild objective"):
            GLMModel.load(path)

    def test_artifact_is_a_plain_zip(self, tmp_path, model):
        # interop guarantee: the artifact opens with stdlib zipfile
        path = model.save(tmp_path / "m.npz")
        assert zipfile.is_zipfile(path)


# ----------------------------------------------------------------------
# ModelRegistry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_versions_are_monotonic(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        assert registry.save_model(model, "svm") == "v0001"
        assert registry.save_model(model, "svm") == "v0002"
        assert registry.save_model(model, "other") == "v0001"
        assert registry.model_names() == ["other", "svm"]

    def test_load_specific_version(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save_model(model, "svm")
        other = GLMModel(weights=model.weights * 2.0,
                         objective=model.objective)
        registry.save_model(other, "svm")
        v1 = registry.load_model("svm", "v0001")
        v2 = registry.load_model("svm", "v0002")
        assert np.array_equal(v1.weights, model.weights)
        assert np.array_equal(v2.weights, other.weights)

    def test_default_is_latest_until_promoted(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save_model(model, "svm")
        newer = GLMModel(weights=model.weights + 1.0,
                         objective=model.objective)
        registry.save_model(newer, "svm")
        assert np.array_equal(registry.load_model("svm").weights,
                              newer.weights)
        registry.promote("svm", "v0001")
        assert registry.promoted_version("svm") == "v0001"
        assert np.array_equal(registry.load_model("svm").weights,
                              model.weights)

    def test_list_versions_metadata(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save_model(model, "svm", provenance={"seed": 5})
        registry.save_model(model, "svm")
        registry.promote("svm", "v0002")
        infos = registry.list_versions("svm")
        assert [i.version for i in infos] == ["v0001", "v0002"]
        assert [i.promoted for i in infos] == [False, True]
        assert infos[0].dim == model.dim
        assert infos[0].provenance == {"seed": 5}
        assert infos[0].objective["loss"] == "hinge"
        assert len(infos[0].digest) == 64

    def test_unknown_name_and_version(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(RegistryError, match="no model named"):
            registry.load_model("ghost")
        registry.save_model(model, "svm")
        with pytest.raises(RegistryError, match="no version"):
            registry.load_model("svm", "v0099")
        with pytest.raises(RegistryError, match="no version"):
            registry.promote("svm", "v0099")

    def test_invalid_names_rejected(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        for bad in ("../escape", "", ".hidden", "a/b"):
            with pytest.raises(RegistryError, match="invalid model name"):
                registry.save_model(model, bad)

    def test_promote_refuses_corrupted_artifact(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save_model(model, "svm")
        registry.promote("svm", "v0001")
        version = registry.save_model(model, "svm")
        path = registry.resolve("svm", version)
        with np.load(path, allow_pickle=False) as data:
            weights, meta = np.array(data["weights"]), data["meta"]
        weights[3] = 42.0
        np.savez(path, weights=weights, meta=meta)
        with pytest.raises(ArtifactError, match="digest mismatch"):
            registry.promote("svm", version)
        # the old promotion is untouched
        assert registry.promoted_version("svm") == "v0001"

    def test_malformed_promoted_pointer(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save_model(model, "svm")
        (tmp_path / "reg" / "svm" / "PROMOTED").write_text("banana\n")
        with pytest.raises(RegistryError, match="malformed promotion"):
            registry.load_model("svm")


# ----------------------------------------------------------------------
# the committed CI smoke fixture
# ----------------------------------------------------------------------
class TestCommittedTinyArtifact:
    """Guards tests/data/tiny_model.npz, which CI's smoke job scores.

    Regenerate with ``PYTHONPATH=src python tests/data/make_tiny_artifact.py``
    if the artifact format changes.
    """

    def test_loads_and_predicts(self):
        from pathlib import Path

        from repro.data import read_libsvm

        data_dir = Path(__file__).parent / "data"
        model = GLMModel.load(data_dir / "tiny_model.npz")
        dataset = read_libsvm(data_dir / "tiny.libsvm")
        assert model.dim == dataset.n_features
        meta = read_artifact_meta(data_dir / "tiny_model.npz")
        assert meta["provenance"]["system"] == "MLlib*"
        assert model.accuracy(dataset.X, dataset.y) > 0.6
