"""Photonic hardware substrate: components, meshes, encoders, detectors, area.

This package simulates the optical hardware that OplixNet targets:

* :mod:`~repro.photonics.components` -- transfer matrices of directional
  couplers (DC), thermo-optic phase shifters (PS), Mach-Zehnder
  interferometers (MZI, Eq. 1 of the paper) and attenuators, plus their power
  models.
* :mod:`~repro.photonics.mzi_mesh` -- Reck (triangular) and Clements
  (rectangular) decompositions of arbitrary unitaries into MZI meshes and
  their reconstruction.
* :mod:`~repro.photonics.svd_mapping` -- SVD-based mapping of arbitrary weight
  matrices onto two meshes plus a diagonal attenuator column: the
  :class:`PhotonicMatrix` every compiled mesh stage carries as its
  ``matrix`` (the stages and the other graph ops, which need only a
  ``forward``, live in :mod:`repro.core.lowering` and
  :mod:`repro.core.graph_ir`), with ``degraded`` copies for phase
  quantization and noise.
* :mod:`~repro.photonics.encoders` -- the proposed DC-based complex encoder,
  the PS-based encoder of [16] and the conventional amplitude encoder.
* :mod:`~repro.photonics.detectors` -- photodiode and coherent detection.
* :mod:`~repro.photonics.area` -- MZI / DC / PS counting and the area model
  used by every experiment table.
* :mod:`~repro.photonics.engine` -- the compiled, vectorized mesh-propagation
  engine: column scheduling of disjoint MZIs, batched transfer-matrix
  evaluation, trials-axis noise ensembles and cached dense transfer matrices.
* :mod:`~repro.photonics.noise` -- phase noise / quantization models.
"""

from repro.photonics.components import (
    directional_coupler,
    phase_shifter,
    mzi_transfer,
    attenuator,
    DirectionalCoupler,
    PhaseShifter,
    MZI,
    phase_shifter_power_mw,
)
from repro.photonics.engine import (
    MeshProgram,
    column_schedule,
    dense_transfer,
    mzi_block_coefficients,
    propagate,
    reference_apply,
)
from repro.photonics.mzi_mesh import (
    MZISetting,
    MeshDecomposition,
    reck_decompose,
    reck_decompose_reference,
    reck_decompose_stack,
    clements_decompose,
    clements_decompose_reference,
    clements_decompose_stack,
    decompose_unitary,
    decompose_unitary_stack,
    random_unitary,
    is_unitary,
)
from repro.photonics.svd_mapping import PhotonicMatrix, svd_decompose, svd_decompose_many
from repro.photonics.encoders import (
    DCComplexEncoder,
    PSComplexEncoder,
    AmplitudeEncoder,
)
from repro.photonics.detectors import PhotodiodeDetector, CoherentDetector
from repro.photonics.area import (
    mzi_count_unitary,
    mzi_count_matrix,
    AreaReport,
    LayerArea,
    count_linear_layer,
    count_conv_layer,
    MZI_DC_COUNT,
    MZI_PS_COUNT,
)
from repro.photonics.noise import PhaseNoiseModel, quantize_phases

__all__ = [
    "directional_coupler",
    "phase_shifter",
    "mzi_transfer",
    "attenuator",
    "DirectionalCoupler",
    "PhaseShifter",
    "MZI",
    "phase_shifter_power_mw",
    "MeshProgram",
    "column_schedule",
    "dense_transfer",
    "mzi_block_coefficients",
    "propagate",
    "reference_apply",
    "MZISetting",
    "MeshDecomposition",
    "reck_decompose",
    "reck_decompose_reference",
    "reck_decompose_stack",
    "clements_decompose",
    "clements_decompose_reference",
    "clements_decompose_stack",
    "decompose_unitary",
    "decompose_unitary_stack",
    "random_unitary",
    "is_unitary",
    "PhotonicMatrix",
    "svd_decompose",
    "svd_decompose_many",
    "DCComplexEncoder",
    "PSComplexEncoder",
    "AmplitudeEncoder",
    "PhotodiodeDetector",
    "CoherentDetector",
    "mzi_count_unitary",
    "mzi_count_matrix",
    "AreaReport",
    "LayerArea",
    "count_linear_layer",
    "count_conv_layer",
    "MZI_DC_COUNT",
    "MZI_PS_COUNT",
    "PhaseNoiseModel",
    "quantize_phases",
]
