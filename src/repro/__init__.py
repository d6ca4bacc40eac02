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
_STORE_EXPORTS = ("ArtifactStore",)

__all__ = ["__version__", *_COMPILER_EXPORTS, *_STORE_EXPORTS]


def __getattr__(name):
    """Lazily resolve the compiler API (PEP 562) to keep ``import repro`` light."""
    # import_module (not attribute access): repro.core re-exports the
    # compile *function* under the same name as the submodule
    from importlib import import_module

    if name in _COMPILER_EXPORTS:
        return getattr(import_module("repro.core.compile"), name)
    if name in _STORE_EXPORTS:
        return getattr(import_module("repro.store"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
