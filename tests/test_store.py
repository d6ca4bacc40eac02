"""Tests of the ahead-of-time compilation artifact store (:mod:`repro.store`).

Covers the content-addressed key (stability, weight/policy perturbation,
noise-target bypass), cold-save/warm-load parity through ``repro.compile``,
every corruption mode degrading to a quarantined miss + live recompile,
atomic publication under racing writers (in-process deterministic loser and
two real processes), read-only degradation, cache/service invalidation
extending to disk, and the warm spawned worker performing zero
decompositions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.assignment import get_scheme
from repro.core.compile import CompileOptions, HardwareTarget
from repro.core.compile import compile as compile_model
from repro.models import ComplexFCNN
from repro.photonics.noise import PhaseNoiseModel
from repro.serve.cache import ProgramCache
from repro.store import ArtifactMismatchError, ArtifactStore
from repro.store.manifest import MANIFEST_NAME, PAYLOAD_NAME

IMAGE_SHAPE = (1, 4, 4)      # SI assignment halves 16 pixels -> 8 complex features


def tiny_fcnn(seed: int = 0) -> ComplexFCNN:
    return ComplexFCNN(8, (6,), 3, decoder="merge",
                       rng=np.random.default_rng(seed))


def sample_images(count: int = 5) -> np.ndarray:
    return np.random.default_rng(42).normal(size=(count, *IMAGE_SHAPE))


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def warm_store(store) -> ArtifactStore:
    """A store already holding the ``tiny_fcnn()`` default-policy entry."""
    program = compile_model(tiny_fcnn(), store=store)
    assert program.store_key is not None and store.stats.saves == 1
    return store


class TestContentKey:
    def test_key_is_stable_across_equal_models(self, store):
        key = store.key_for(tiny_fcnn())
        assert key == store.key_for(tiny_fcnn())
        assert len(key) == 64 and set(key) <= set("0123456789abcdef")

    def test_key_tracks_weights_and_policy(self, store):
        base = store.key_for(tiny_fcnn())
        perturbed = tiny_fcnn()
        perturbed.parameters()[0].data += 1e-9
        keys = {
            base,
            store.key_for(perturbed),
            store.key_for(tiny_fcnn(seed=1)),
            store.key_for(tiny_fcnn(), target=HardwareTarget(method="reck")),
            store.key_for(tiny_fcnn(), options=CompileOptions(backend="column")),
            store.key_for(tiny_fcnn(),
                          options=CompileOptions(batch_unitaries=False)),
            store.key_for(tiny_fcnn(),
                          target=HardwareTarget(quantization_bits=6)),
        }
        assert len(keys) == 7      # every perturbation lands on its own key

    def test_noise_targets_bypass_the_store(self, store):
        noisy = HardwareTarget(noise=PhaseNoiseModel.seeded(0.01), trials=2)
        assert store.try_key_for(tiny_fcnn(), target=noisy) is None
        program = compile_model(tiny_fcnn(), target=noisy, store=store)
        assert program.store_key is None and not program.store_hit
        assert store.keys() == [] and store.stats.saves == 0


class TestRoundTrip:
    def test_cold_compile_populates_warm_compile_hits(self, store):
        scheme, images = get_scheme("SI"), sample_images()
        cold = compile_model(tiny_fcnn(), store=store)
        assert not cold.store_hit and store.has(cold.store_key)
        warm = compile_model(tiny_fcnn(), store=store)
        assert warm.store_hit and warm.store_key == cold.store_key
        assert store.stats.hits == 1 and store.stats.saves == 1
        deviation = np.abs(warm.predict_logits(images, scheme)
                           - cold.predict_logits(images, scheme)).max()
        assert deviation <= 1e-12

    def test_warm_dense_matrices_are_memory_mapped(self, warm_store):
        [key] = warm_store.keys()
        artifact = warm_store.load(key)
        assert artifact is not None and len(artifact.matrices) >= 1
        # tiny meshes run the dense path, so every stage should serve its
        # fused transfer matrix straight off the mapped file
        assert all(isinstance(matrix.effective_weight_t(), np.memmap)
                   for matrix in artifact.matrices)

    def test_quantized_target_round_trips_through_the_store(self, store):
        scheme, images = get_scheme("SI"), sample_images()
        target = HardwareTarget(quantization_bits=5)
        cold = compile_model(tiny_fcnn(), target=target, store=store)
        warm = compile_model(tiny_fcnn(), target=target, store=store)
        assert warm.store_hit
        # quantization is applied after the stored clean decomposition, so
        # the warm program must land on the identical quantized logits
        deviation = np.abs(warm.predict_logits(images, scheme)
                           - cold.predict_logits(images, scheme)).max()
        assert deviation <= 1e-12

    def test_deploy_fn_rejects_foreign_models(self, warm_store):
        [key] = warm_store.keys()
        artifact = warm_store.load(key)
        with pytest.raises(ArtifactMismatchError, match="deploys"):
            artifact.deploy_fn()([np.zeros((99, 99))])
        with pytest.raises(ArtifactMismatchError, match="more"):
            artifact.deploy_fn()([np.zeros((2, 2))]
                                 * (len(artifact.matrices) + 1))

    def test_mismatching_entry_quarantines_and_recompiles(self, warm_store):
        # same content key, different model: only reachable through damage or
        # tampering, so stage it by hand -- the compile seam must quarantine
        # the entry and still return a working live-compiled program
        scheme, images = get_scheme("SI"), sample_images()
        other = ComplexFCNN(8, (7, 6), 3, decoder="merge",
                            rng=np.random.default_rng(5))
        key = warm_store.key_for(other)
        [donor] = warm_store.keys()
        entry = warm_store.entry_path(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        os.rename(warm_store.entry_path(donor), entry)
        # patch the manifest's key so validation blames the *content*, not
        # the location -- exactly what a stale-but-well-formed entry looks like
        manifest = json.loads((entry / MANIFEST_NAME).read_text())
        manifest["key"] = key
        (entry / MANIFEST_NAME).write_text(json.dumps(manifest))
        program = compile_model(other, store=warm_store)
        assert not program.store_hit
        assert warm_store.has(key) and warm_store.stats.saves == 2
        reference = compile_model(ComplexFCNN(8, (7, 6), 3, decoder="merge",
                                              rng=np.random.default_rng(5)))
        deviation = np.abs(program.predict_logits(images, scheme)
                           - reference.predict_logits(images, scheme)).max()
        assert deviation <= 1e-12


def _truncate_payload(entry: Path) -> None:
    payload = entry / PAYLOAD_NAME
    payload.write_bytes(payload.read_bytes()[:payload.stat().st_size // 2])


def _bitflip_payload(entry: Path) -> None:
    payload = entry / PAYLOAD_NAME
    raw = bytearray(payload.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    payload.write_bytes(bytes(raw))


def _bitflip_dense(entry: Path) -> None:
    dense = sorted((entry / "dense").glob("*.npy"))
    assert dense, "tiny meshes must publish dense payloads"
    raw = bytearray(dense[0].read_bytes())
    raw[-1] ^= 0xFF
    dense[0].write_bytes(bytes(raw))


def _wrong_schema(entry: Path) -> None:
    manifest = json.loads((entry / MANIFEST_NAME).read_text())
    manifest["schema_version"] = 999
    (entry / MANIFEST_NAME).write_text(json.dumps(manifest))


def _garble_manifest(entry: Path) -> None:
    (entry / MANIFEST_NAME).write_text("{this is not json")


class TestCorruption:
    @pytest.mark.parametrize("damage", [
        _truncate_payload, _bitflip_payload, _bitflip_dense,
        _wrong_schema, _garble_manifest,
    ], ids=["truncated-payload", "bitflipped-payload", "bitflipped-dense",
            "wrong-schema", "garbled-manifest"])
    def test_damage_degrades_to_live_compile(self, warm_store, damage):
        scheme, images = get_scheme("SI"), sample_images()
        [key] = warm_store.keys()
        damage(warm_store.entry_path(key))
        assert warm_store.load(key) is None         # logged miss, never a crash
        assert warm_store.stats.corrupt == 1
        assert not warm_store.has(key)              # quarantined out of the tree
        program = compile_model(tiny_fcnn(), store=warm_store)
        assert not program.store_hit
        assert warm_store.has(key)                  # recompile repopulated it
        reference = compile_model(tiny_fcnn())
        deviation = np.abs(program.predict_logits(images, scheme)
                           - reference.predict_logits(images, scheme)).max()
        assert deviation <= 1e-12
        # ... and the repopulated entry is warm again
        assert compile_model(tiny_fcnn(), store=warm_store).store_hit


class TestAtomicPublication:
    def test_losing_the_rename_race_is_success(self, tmp_path):
        # publish the same key twice: the second save assembles its tmp
        # directory, loses os.replace to the existing entry (ENOTEMPTY) and
        # must treat that as the other writer having won
        store = ArtifactStore(tmp_path / "store")
        model = tiny_fcnn()
        target, options = HardwareTarget(), CompileOptions()
        key = store.key_for(model, target, options)
        assert store.save(key, [], model, target, options) is True
        assert store.save(key, [], model, target, options) is True
        assert store.stats.saves == 2 and store.stats.errors == 0
        assert store.keys() == [key]
        assert not list((tmp_path / "store").rglob("*.tmp"))

    def test_two_processes_precompile_the_same_key(self, tmp_path):
        root = tmp_path / "store"
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.core.compile import compile as compile_model\n"
            "from repro.models import ComplexFCNN\n"
            "from repro.store import ArtifactStore\n"
            "store = ArtifactStore(sys.argv[1])\n"
            "model = ComplexFCNN(8, (6,), 3, decoder='merge',\n"
            "                    rng=np.random.default_rng(0))\n"
            "program = compile_model(model, store=store)\n"
            "print(program.store_key, store.stats.errors)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        racers = [subprocess.Popen([sys.executable, "-c", script, str(root)],
                                   env=env, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
                  for _ in range(2)]
        outputs = []
        for racer in racers:
            stdout, stderr = racer.communicate(timeout=300)
            assert racer.returncode == 0, stderr
            outputs.append(stdout.split())
        (key_a, errors_a), (key_b, errors_b) = outputs
        assert key_a == key_b and errors_a == errors_b == "0"
        store = ArtifactStore(root)
        assert store.keys() == [key_a]
        assert not list(root.rglob("*.tmp"))        # no torn/leftover writers
        assert compile_model(tiny_fcnn(), store=store).store_hit


class TestReadOnlyDegradation:
    def test_readonly_flag_never_writes(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", readonly=True)
        program = compile_model(tiny_fcnn(), store=store)
        assert program.store_key is not None and not program.store_hit
        assert store.keys() == [] and store.stats.saves == 0
        images, scheme = sample_images(), get_scheme("SI")
        reference = compile_model(tiny_fcnn())
        assert np.abs(program.predict_logits(images, scheme)
                      - reference.predict_logits(images, scheme)).max() <= 1e-12

    def test_unwritable_media_degrades_to_live_compile(self, store, monkeypatch):
        import repro.store.artifact as artifact_module

        def refuse(*_args, **_kwargs):
            raise PermissionError("read-only file system")

        monkeypatch.setattr(artifact_module.os, "replace", refuse)
        program = compile_model(tiny_fcnn(), store=store)
        assert program.store_key is not None and not program.store_hit
        assert store.stats.errors == 1 and store.keys() == []
        assert not list(store.root.rglob("*.tmp"))  # failed write left no tmp
        assert program.predict_logits(sample_images(), get_scheme("SI")).shape == (5, 3)

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root ignores directory write bits")
    def test_unwritable_directory_degrades_to_live_compile(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        root.chmod(0o555)
        try:
            store = ArtifactStore(root)
            program = compile_model(tiny_fcnn(), store=store)
            assert not program.store_hit and store.stats.errors == 1
        finally:
            root.chmod(0o755)


class TestServingIntegration:
    def test_cache_invalidate_extends_to_disk(self, tmp_path):
        root = tmp_path / "store"
        cache = ProgramCache(capacity=4, store=ArtifactStore(root))
        program = cache.get_or_compile("fcnn", tiny_fcnn())
        key = program.store_key
        assert not program.store_hit and cache.store.has(key)
        # a second cache over the same root stands in for a fresh process
        warm_cache = ProgramCache(capacity=4, store=ArtifactStore(root))
        assert warm_cache.get_or_compile("fcnn", tiny_fcnn()).store_hit
        # invalidate deletes the disk entry; the next compile of the key
        # bypasses the store read and rewrites the entry live
        assert cache.invalidate("fcnn") is True
        assert not cache.store.has(key) and cache.store.stats.deletes == 1
        fresh = cache.get_or_compile("fcnn", tiny_fcnn())
        assert not fresh.store_hit and cache.store.has(key)
        assert cache.store.stats.saves == 2

    def test_warm_worker_spawns_with_zero_decompositions(self, tmp_path):
        from repro.serve.shard import ShardedInferenceService

        root = tmp_path / "store"
        model = tiny_fcnn()
        program = compile_model(model, store=ArtifactStore(root))
        assert program.store_key is not None
        with ShardedInferenceService(workers=1, max_batch=8,
                                     max_latency_s=0.002,
                                     store_path=str(root)) as service:
            info = service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)
            # the whole replica program came off the warm store: the spawned
            # process never ran a single SVD decomposition
            assert info["decompositions"] == [0]
            replicas = service.stats()["fcnn"]["replicas"]
            assert all(stats["store"]["hits"] == 1 and stats["store"]["misses"] == 0
                       for stats in replicas.values())
            images = sample_images()
            expected = program.predict_logits(images, get_scheme("SI"))
            assert np.abs(service.logits("fcnn", images) - expected).max() <= 1e-12


class TestPruning:
    def _populate(self, store, count=3):
        """Distinct entries with strictly increasing (stale) LRU stamps."""
        keys = []
        for seed in range(count):
            program = compile_model(tiny_fcnn(seed=seed), store=store)
            keys.append(program.store_key)
        for rank, key in enumerate(keys):
            stamp = 1_000_000.0 + rank        # far in the past, ordered
            os.utime(store.entry_path(key), (stamp, stamp))
        return keys

    def test_lru_prune_keeps_most_recently_used(self, store):
        oldest, middle, newest = self._populate(store)
        assert store.load(oldest) is not None    # a hit refreshes the clock
        report = store.prune(max_entries=2)
        assert report == {"removed_entries": 1, "removed_quarantined": 0,
                          "kept_entries": 2}
        # `middle` was the least recently *used* entry, not `oldest`
        assert store.has(oldest) and store.has(newest) and not store.has(middle)
        assert store.stats.deletes == 1

    def test_age_prune_drops_stale_entries_and_quarantine(self, store):
        keys = self._populate(store)
        store.quarantine(keys[0])                # stale tree under .quarantine
        [quarantined] = (store.root / ".quarantine").iterdir()
        os.utime(quarantined, (1_000_000.0, 1_000_000.0))
        report = store.prune(max_age=3600.0)
        assert report == {"removed_entries": 2, "removed_quarantined": 1,
                          "kept_entries": 0}
        assert store.keys() == []
        assert not any((store.root / ".quarantine").iterdir())
        # fresh entries survive the same bound
        fresh = compile_model(tiny_fcnn(seed=7), store=store)
        assert store.prune(max_age=3600.0)["kept_entries"] == 1
        assert store.has(fresh.store_key)

    def test_prune_never_tears_a_concurrent_reader(self, store, monkeypatch):
        """A reader mid-load when its entry is pruned gets a clean miss.

        The interleaving is forced deterministically: the reader opens the
        manifest, then -- before it hashes the payload -- another store
        handle prunes everything.  The reader must degrade to the standard
        quarantined miss (``None`` + ``corrupt`` counted), never raise or
        serve a torn entry.
        """
        from repro.store import artifact as artifact_module

        [key] = [compile_model(tiny_fcnn(), store=store).store_key]
        real_sha256 = artifact_module.file_sha256
        pruned = {}

        def racing_sha256(path):
            if not pruned:
                pruned["report"] = ArtifactStore(store.root).prune(max_entries=0)
            return real_sha256(path)

        monkeypatch.setattr(artifact_module, "file_sha256", racing_sha256)
        assert store.load(key) is None
        assert pruned["report"]["removed_entries"] == 1
        assert store.stats.corrupt == 1 and store.stats.hits == 0
        # no half-deleted debris left in the addressable tree
        assert store.keys() == [] and not store.has(key)

    def test_readonly_store_never_prunes(self, warm_store):
        readonly = ArtifactStore(warm_store.root, readonly=True)
        report = readonly.prune(max_entries=0, max_age=0.0)
        assert report == {"removed_entries": 0, "removed_quarantined": 0,
                          "kept_entries": 1}
        assert len(warm_store.keys()) == 1

    def test_prune_cli_reports_removals(self, store, capsys):
        from repro.cli import main

        self._populate(store, count=2)
        assert main(["store", "prune", str(store.root), "--max-entries", "1"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 entry" in out and "1 kept" in out
        assert len(ArtifactStore(store.root).keys()) == 1
