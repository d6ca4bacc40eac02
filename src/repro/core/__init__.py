"""The OplixNet framework: the paper's primary contribution.

The workflow (Fig. 2 of the paper) is::

    real dataset -> data assignment -> optical complex encoder -> split ONN
                 -> learnable complex decoder -> real logits

    SCVNN <-> CVNN mutual learning restores the accuracy lost by assignment;
    trained parameters are mapped to MZI phases and deployed on the photonic
    circuit.

This package contains the learnable decoder heads, the trainer, the mutual
learning (knowledge distillation) loop, the experiment configuration objects,
the model-level area analysis and the photonic deployment path.
The training stack resolves lazily: compiling and serving a program loads
neither it nor the data stack and scipy behind it.
"""

from repro import lazy_exports
from repro.core.decoders import (
    DecoderHead,
    MergeDecoderHead,
    LinearDecoderHead,
    UnitaryDecoderHead,
    CoherentDecoderHead,
    PhotodiodeHead,
    UnitaryLinear,
    build_decoder_head,
    DECODER_CHOICES,
)
from repro.core.config import ExperimentConfig, TrainingConfig
from repro.core.graph_ir import GraphNode, GraphProgram
from repro.core.lowering import (
    LoweringContext,
    lower_to_graph,
    register_head_lowering,
    register_lowering,
    register_model_lowering,
)
from repro.core.compile import (
    CompiledProgram,
    HardwareTarget,
    compile,
)

__all__ = [
    "DecoderHead",
    "MergeDecoderHead",
    "LinearDecoderHead",
    "UnitaryDecoderHead",
    "CoherentDecoderHead",
    "PhotodiodeHead",
    "UnitaryLinear",
    "build_decoder_head",
    "DECODER_CHOICES",
    "ExperimentConfig",
    "TrainingConfig",
    "Trainer",
    "TrainingHistory",
    "evaluate_accuracy",
    "MutualLearningTrainer",
    "MutualLearningResult",
    "model_area_report",
    "compare_area",
    "OplixNet",
    "GraphNode",
    "GraphProgram",
    "LoweringContext",
    "lower_to_graph",
    "register_head_lowering",
    "register_lowering",
    "register_model_lowering",
    "CompiledProgram",
    "HardwareTarget",
    "compile",
]

_LAZY_EXPORTS = {  # name -> submodule of repro.core
    **dict.fromkeys(("Trainer", "TrainingHistory", "evaluate_accuracy"), "training"),
    **dict.fromkeys(("MutualLearningTrainer", "MutualLearningResult"), "distillation"),
    **dict.fromkeys(("model_area_report", "compare_area"), "area_analysis"),
    "OplixNet": "pipeline",
}
__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)
