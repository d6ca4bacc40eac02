"""OplixNet reproduction: area-efficient optical split-complex neural networks.

This package reproduces "OplixNet: Towards Area-Efficient Optical Split-Complex
Networks with Real-to-Complex Data Assignment and Knowledge Distillation"
(DATE 2024).  It contains, from the bottom up:

* :mod:`repro.tensor` -- a numpy-based reverse-mode autograd engine.
* :mod:`repro.nn` -- real and (split-)complex neural-network layers.
* :mod:`repro.optim` -- optimizers and learning-rate schedules.
* :mod:`repro.data` -- datasets, loaders and synthetic MNIST/CIFAR stand-ins.
* :mod:`repro.assignment` -- real-to-complex data assignment schemes.
* :mod:`repro.photonics` -- MZI/DC/PS transfer-matrix simulation, mesh
  decompositions, encoders, detectors and the area / power model.
* :mod:`repro.models` -- FCNN, LeNet-5 and ResNet model zoo (RVNN/CVNN/SCVNN).
* :mod:`repro.core` -- the OplixNet framework itself: training, learnable
  decoders, SCVNN-CVNN mutual learning and photonic deployment.
* :mod:`repro.baselines` -- conventional ONN, OFFT ONN and pruned ONN baselines.
* :mod:`repro.experiments` -- harnesses reproducing every table and figure of
  the paper's evaluation.

The photonic compiler is exposed at the top level::

    import repro

    program = repro.compile(model)                       # CompiledProgram
    logits = program.predict_logits(images, scheme)

with :class:`repro.HardwareTarget` describing the mesh scheme and noise
model (these resolve lazily so ``import repro`` stays cheap).
"""

__version__ = "1.2.0"

_COMPILER_EXPORTS = ("compile", "CompiledProgram", "HardwareTarget")

__all__ = ["__version__", *_COMPILER_EXPORTS, "ArtifactStore"]


def lazy_exports(package: str, exports: dict):
    """A PEP 562 module ``__getattr__`` for ``package``: each name of
    ``exports`` (name -> submodule) is imported on first access."""
    # import_module (not attribute access): repro.core re-exports the
    # compile *function* under the same name as the submodule
    from importlib import import_module

    def __getattr__(name):
        if name in exports:
            return getattr(import_module(f"{package}.{exports[name]}"), name)
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    return __getattr__


# the compiler API resolves lazily, to keep ``import repro`` light
__getattr__ = lazy_exports(__name__, {
    **dict.fromkeys(_COMPILER_EXPORTS, "core.compile"), "ArtifactStore": "store"})
