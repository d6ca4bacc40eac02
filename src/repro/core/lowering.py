"""Compiler-style lowering of trained complex models onto photonic programs.

Lowering turns every layer of a supported complex model into a *node op* --
the "Paras -> phase mapping -> deploy phases" arrow of Fig. 2 generalised
beyond fully connected trunks:

* :class:`LinearStage` -- a ``ComplexLinear`` weight matrix deployed via SVD
  onto two MZI meshes: the stage holds that
  :class:`~repro.photonics.svd_mapping.PhotonicMatrix` as ``matrix`` and its
  electronic ``bias``.
* :class:`Conv2dStage` -- a ``ComplexConv2d`` kernel lowered to its im2col
  matrix ``(out_channels, in_channels * kh * kw)`` on meshes (again
  ``matrix`` and ``bias``); the forward pass extracts complex patches and
  streams them through the mesh engine as one batch (``batch * out_h *
  out_w`` patch vectors per image batch).
* :class:`AvgPool2dStage` / :class:`GlobalAvgPool2dStage` /
  :class:`FlattenStage` -- linear structural ops (average pooling is
  realisable with fixed couplers; in this simulation all run array-level on
  the complex amplitudes).
* electronic ops (:class:`~repro.core.graph_ir.ElectronicBatchNorm`,
  :class:`~repro.core.graph_ir.ElectronicAdd`,
  :class:`~repro.core.graph_ir.ElectronicActivation`) for everything that
  lives in the electrical domain: split batch norms, skip additions and
  CReLU activations.  The graph holds one node per op; whether a CReLU or
  batch norm folds into the stage before it is decided only when the plan
  is compiled (:func:`repro.core.runtime.compile_plan`).

How a module lowers is decided by an extensible **rule registry**: decorate a
function with ``@register_lowering(LayerType)`` and any chain or graph walk
will dispatch to it (nearest match in the module's MRO wins).  The op a rule
emits needs only a batch-first ``forward``; a *mesh stage* also carries its
deployed ``matrix`` (a ``PhotonicMatrix``), which is all the program reads to
count devices (:attr:`~repro.core.graph_ir.GraphProgram.mzi_count`) and to
degrade the hardware (:meth:`~repro.core.graph_ir.GraphProgram.with_noise`).
Models register whole-model rules with ``@register_model_lowering`` (the built-in
families register theirs in :mod:`repro.models`) and decoder heads with
``@register_head_lowering``.  Rules receive a :class:`LoweringContext`, which
carries the mesh method, the :class:`~repro.core.graph_ir.GraphBuilder`
being filled, and the deferred weight-deployment queue: a stage's weight
queued via :meth:`LoweringContext.deploy_weight` is SVD-factored together
with every other at the end of the walk, so that all same-size unitaries of
the model decompose as one batched Reck/Clements stack
(:func:`repro.photonics.svd_mapping.svd_decompose_many`), and
:meth:`LoweringContext.finalize` sets the stage's ``matrix``.

Every stage is *batch-first*: ``forward`` takes ``(batch, n)`` feature
batches (or ``(batch, channels, height, width)`` image batches) and composes
with the leading trials axes that noise-ensemble meshes introduce, so a whole
Monte-Carlo sweep of a deployed model runs as a single vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

import numpy as np

from repro.core.decoders import (
    CoherentDecoderHead,
    DecoderHead,
    LinearDecoderHead,
    MergeDecoderHead,
    PhotodiodeHead,
    UnitaryDecoderHead,
)
from repro.core.graph_ir import (
    INPUT,
    ElectronicActivation,
    ElectronicBatchNorm,
    GraphBuilder,
    GraphProgram,
)
from repro.nn.complex import ComplexConv2d, ComplexLinear, CReLU
from repro.nn.complex.cmodule import (
    ComplexAvgPool2d,
    ComplexFlatten,
    ComplexGlobalAvgPool2d,
    ComplexSequential,
)
from repro.nn.complex.cnorm import ComplexBatchNorm1d, ComplexBatchNorm2d
from repro.photonics.svd_mapping import PhotonicMatrix, svd_decompose_many

IntPair = Union[int, Tuple[int, int]]


def _as_pair(value: IntPair) -> Tuple[int, int]:
    return tuple(value) if isinstance(value, (tuple, list)) else (int(value), int(value))


def complex_im2col(signal: np.ndarray, kernel_size: Tuple[int, int],
                   stride: Tuple[int, int],
                   padding: Tuple[int, int]) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Extract convolution patches from complex feature maps, batch-first.

    Parameters
    ----------
    signal:
        Complex array of shape ``(..., channels, height, width)``; any number
        of leading axes (batch, trials, ...) is preserved.

    Returns
    -------
    patches, (out_h, out_w):
        ``patches`` has shape ``(..., out_h * out_w, channels * kh * kw)``
        with the feature axis in ``(channel, kh, kw)`` order -- the same
        layout ``ComplexConv2d.weight_matrix()`` flattens the kernel to, so a
        convolution is exactly ``patches @ weight_matrix().T``.
    """
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    signal = np.asarray(signal, dtype=complex)
    if signal.ndim < 3:
        raise ValueError("complex_im2col expects (..., channels, height, width)")
    if ph or pw:
        pad_width = [(0, 0)] * (signal.ndim - 2) + [(ph, ph), (pw, pw)]
        signal = np.pad(signal, pad_width)
    windows = np.lib.stride_tricks.sliding_window_view(signal, (kh, kw), axis=(-2, -1))
    windows = windows[..., ::sh, ::sw, :, :]        # (..., C, out_h, out_w, kh, kw)
    channels = windows.shape[-5]
    out_h, out_w = windows.shape[-4], windows.shape[-3]
    windows = np.moveaxis(windows, -5, -3)          # (..., out_h, out_w, C, kh, kw)
    patches = windows.reshape(windows.shape[:-5] + (out_h * out_w, channels * kh * kw))
    return patches, (out_h, out_w)


# --------------------------------------------------------------------------- #
# photonic stages
# --------------------------------------------------------------------------- #
def _deployed(matrix: PhotonicMatrix, bias: Optional[np.ndarray],
              signal: np.ndarray) -> np.ndarray:
    """``signal`` through the meshes, plus the bias added after detection."""
    outputs = matrix.apply(signal)
    if bias is not None:
        outputs = outputs + bias
    return outputs


@dataclass
class LinearStage:
    """One weight matrix deployed via SVD on two MZI meshes.

    The optional complex ``bias`` is added electronically after detection
    (photonic MVM engines add biases in the electrical domain).  ``matrix``
    is None only while a lowering walk waits for
    :meth:`LoweringContext.finalize`.
    """

    matrix: Optional[PhotonicMatrix]
    bias: Optional[np.ndarray] = None

    def forward(self, signal: np.ndarray) -> np.ndarray:
        """Apply the deployed matrix to ``(*trials, batch, n)`` amplitudes."""
        return _deployed(self.matrix, self.bias, signal)


@dataclass
class Conv2dStage:
    """A complex convolution deployed as its im2col matrix on MZI meshes.

    ``forward`` extracts the complex patches of every image in the batch and
    streams them through the deployed kernel matrix as one
    ``(batch * out_h * out_w, in_channels * kh * kw)`` mesh batch -- the
    "weight-sharing" of the convolution becomes mesh reuse.  The complex bias
    (one per output channel) is added electronically.
    """

    matrix: Optional[PhotonicMatrix]
    in_channels: int
    out_channels: int
    kernel_size: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int]
    bias: Optional[np.ndarray] = None

    def forward(self, signal: np.ndarray) -> np.ndarray:
        """Convolve ``(*trials, batch, channels, height, width)`` amplitudes."""
        signal = np.asarray(signal, dtype=complex)
        if signal.ndim < 4:
            raise ValueError("Conv2dStage expects (..., batch, channels, height, width)")
        if signal.shape[-3] != self.in_channels:
            raise ValueError(f"Conv2dStage expects {self.in_channels} input "
                             f"channels, got {signal.shape[-3]}")
        batch = signal.shape[-4]
        patches, (out_h, out_w) = complex_im2col(signal, self.kernel_size,
                                                 self.stride, self.padding)
        flat = patches.reshape(patches.shape[:-3] + (batch * out_h * out_w,
                                                     patches.shape[-1]))
        # (*trials, batch * L, out_channels)
        outputs = _deployed(self.matrix, self.bias, flat)
        outputs = outputs.reshape(outputs.shape[:-2]
                                  + (batch, out_h * out_w, self.out_channels))
        outputs = np.swapaxes(outputs, -1, -2)
        return outputs.reshape(outputs.shape[:-1] + (out_h, out_w))


@dataclass
class AvgPool2dStage:
    """Complex average pooling (linear; realisable with fixed couplers)."""

    kernel_size: Tuple[int, int]
    stride: Tuple[int, int]

    def forward(self, signal: np.ndarray) -> np.ndarray:
        signal = np.asarray(signal, dtype=complex)
        kh, kw = self.kernel_size
        sh, sw = self.stride
        # sum kh*kw strided slices (one per window offset) and divide once:
        # several times faster than a mean over a sliding-window view
        rows = sh * ((signal.shape[-2] - kh) // sh) + 1
        cols = sw * ((signal.shape[-1] - kw) // sw) + 1
        if rows < 1 or cols < 1:
            raise ValueError(f"pooling window {self.kernel_size} exceeds the "
                             f"{signal.shape[-2:]} input")
        total = signal[..., 0:rows:sh, 0:cols:sw].copy()
        for i in range(kh):
            for j in range(kw):
                if i or j:
                    total += signal[..., i:i + rows:sh, j:j + cols:sw]
        total /= kh * kw
        return total


@dataclass
class GlobalAvgPool2dStage:
    """Global average pooling of ``(..., channels, height, width)`` maps."""

    def forward(self, signal: np.ndarray) -> np.ndarray:
        signal = np.asarray(signal, dtype=complex)
        if signal.ndim < 4:
            raise ValueError("GlobalAvgPool2dStage expects "
                             "(..., batch, channels, height, width)")
        return signal.mean(axis=(-2, -1))


@dataclass
class FlattenStage:
    """Flatten ``(..., channels, height, width)`` maps into feature vectors."""

    def forward(self, signal: np.ndarray) -> np.ndarray:
        signal = np.asarray(signal, dtype=complex)
        if signal.ndim < 4:
            raise ValueError("FlattenStage expects (..., batch, channels, height, width)")
        return signal.reshape(signal.shape[:-3] + (-1,))


# --------------------------------------------------------------------------- #
# lowering-rule registries
# --------------------------------------------------------------------------- #
_LAYER_RULES: Dict[Type, Callable] = {}
_HEAD_RULES: Dict[Type, Callable] = {}
_MODEL_RULES: Dict[Type, Callable] = {}


def _register(registry: Dict[Type, Callable], types: Tuple[Type, ...]) -> Callable:
    def decorator(rule: Callable) -> Callable:
        for module_type in types:
            registry[module_type] = rule
        return rule
    return decorator


def register_lowering(*module_types: Type) -> Callable:
    """Register a lowering rule for one or more module types.

    The rule is called as ``rule(module, name, ctx)`` with a
    :class:`LoweringContext`; it emits nodes through the context.  Dispatch
    walks the module's MRO, so a rule registered for a base class covers its
    subclasses until a more specific rule is registered.
    """
    return _register(_LAYER_RULES, module_types)


def register_head_lowering(*head_types: Type) -> Callable:
    """Register a decoder-head rule, called as ``rule(head, ctx) -> readout``."""
    return _register(_HEAD_RULES, head_types)


def register_model_lowering(*model_types: Type) -> Callable:
    """Register a whole-model rule, called as ``rule(model, ctx)``.

    The rule walks the model, emits the graph through the context (setting
    ``ctx.input_kind``) and lowers the decoder head via ``ctx.lower_head``.
    """
    return _register(_MODEL_RULES, model_types)


def _find_rule(registry: Dict[Type, Callable], obj: Any, what: str) -> Callable:
    for klass in type(obj).__mro__:
        rule = registry.get(klass)
        if rule is not None:
            return rule
    known = sorted(klass.__name__ for klass in registry)
    raise TypeError(f"cannot {what} of type {type(obj).__name__} onto photonic "
                    f"hardware; registered types: {known} "
                    "(add one with @register_lowering)")


class LoweringContext:
    """Carries the mesh method and the graph being built through a walk.

    ``cursor`` names the node whose output the next emitted chain node will
    consume; graph rules (e.g. residual blocks) may reposition it to branch
    and join.  Weight matrices queued through :meth:`deploy_weight` are
    deployed together in :meth:`finalize`, which sets each stage's
    ``matrix``, so that all same-size SVD factors of the walk decompose as
    one batched Reck/Clements stack.

    ``method`` is the one compile choice: the Reck/Clements scheme every
    deployed unitary decomposes by.  How a mesh executes is not chosen here;
    it follows from whether its phases are trials-batched (see
    :meth:`~repro.photonics.mzi_mesh.MeshDecomposition.uses_dense_path`).
    """

    def __init__(self, method: str = "clements",
                 deploy_fn: Optional[Callable] = None):
        self.method = method
        # optional replacement for the live svd_decompose_many call in
        # finalize(); the artifact store serves precompiled matrices here
        self.deploy_fn = deploy_fn
        self.builder = GraphBuilder()
        self.cursor: str = INPUT
        self.input_kind: str = "flat"
        self.readout: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self.num_classes: Optional[int] = None
        self._pending: List[Tuple[np.ndarray, Any]] = []

    # ------------------------------------------------------------------ #
    # graph emission
    # ------------------------------------------------------------------ #
    def emit(self, name: str, op: Any, inputs: Optional[Tuple[str, ...]] = None) -> str:
        """Append a node (consuming the cursor by default) and advance the cursor."""
        node_inputs = (self.cursor,) if inputs is None else tuple(inputs)
        self.cursor = self.builder.add(name, op, node_inputs)
        return self.cursor

    # ------------------------------------------------------------------ #
    # registry dispatch
    # ------------------------------------------------------------------ #
    def lower_module(self, module: Any, name: str) -> None:
        _find_rule(_LAYER_RULES, module, "lower module")(module, name, self)

    def lower_chain(self, modules, prefix: str) -> None:
        """Lower an iterable of modules as a sequential chain at the cursor."""
        for index, module in enumerate(modules):
            self.lower_module(module, f"{prefix}.{index}")

    def lower_head(self, head: DecoderHead) -> None:
        """Lower the decoder head and record its electronic readout closure."""
        self.readout = _find_rule(_HEAD_RULES, head, "deploy decoder head")(head, self)
        self.num_classes = head.num_classes

    # ------------------------------------------------------------------ #
    # deferred (batched) weight deployment
    # ------------------------------------------------------------------ #
    def deploy_weight(self, weight: np.ndarray, stage: Any) -> Any:
        """Queue a weight matrix for batched SVD deployment into ``stage.matrix``.

        Returns ``stage``, whose ``matrix`` :meth:`finalize` sets, grouped
        with every other queued unitary of the same dimension.
        """
        self._pending.append((np.asarray(weight, dtype=complex), stage))
        return stage

    def finalize(self) -> None:
        """Deploy every queued weight; same-size unitaries share one stack pass.

        With a ``deploy_fn`` installed (the artifact store's warm path) the
        queued weights are handed to it instead of being SVD-factored live;
        the function must return one :class:`PhotonicMatrix` per weight, in
        order.
        """
        if not self._pending:
            return
        weights = [weight for weight, _stage in self._pending]
        if self.deploy_fn is not None:
            matrices = list(self.deploy_fn(weights))
            if len(matrices) != len(weights):
                raise ValueError(f"deploy_fn returned {len(matrices)} matrices "
                                 f"for {len(weights)} weights")
        else:
            matrices = svd_decompose_many(weights, method=self.method)
        for (_weight, stage), matrix in zip(self._pending, matrices):
            stage.matrix = matrix
        self._pending.clear()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def program(self) -> GraphProgram:
        """Deploy pending weights and return the graph."""
        if self.readout is None or self.num_classes is None:
            raise RuntimeError("model rule finished without lowering a decoder "
                               "head (ctx.lower_head was never called)")
        self.finalize()
        return self.builder.build(self.cursor, readout=self.readout,
                                  num_classes=self.num_classes,
                                  input_kind=self.input_kind)


# --------------------------------------------------------------------------- #
# built-in layer rules
# --------------------------------------------------------------------------- #
def _complex_bias(layer) -> Optional[np.ndarray]:
    if layer.bias_real is None:
        return None
    return layer.bias_real.data + 1j * layer.bias_imag.data


def _batchnorm_affine(bn) -> Tuple[np.ndarray, np.ndarray]:
    """Fold an eval-mode real BatchNorm into ``(scale, shift)`` per channel."""
    scale = 1.0 / np.sqrt(bn.running_var + bn.eps)
    if bn.affine:
        scale = bn.weight.data * scale
        shift = bn.bias.data - bn.running_mean * scale
    else:
        shift = -bn.running_mean * scale
    return scale, shift


def _emit_linear(ctx: LoweringContext, name: str, module: ComplexLinear) -> None:
    ctx.emit(name, ctx.deploy_weight(module.complex_weight(), LinearStage(
        matrix=None, bias=_complex_bias(module))))


@register_lowering(ComplexLinear)
def _lower_linear_rule(module: ComplexLinear, name: str, ctx: LoweringContext) -> None:
    _emit_linear(ctx, name, module)


@register_lowering(ComplexConv2d)
def _lower_conv2d_rule(module: ComplexConv2d, name: str, ctx: LoweringContext) -> None:
    ctx.emit(name, ctx.deploy_weight(module.weight_matrix(), Conv2dStage(
        matrix=None, in_channels=module.in_channels, out_channels=module.out_channels,
        kernel_size=_as_pair(module.kernel_size), stride=_as_pair(module.stride),
        padding=_as_pair(module.padding), bias=_complex_bias(module))))


@register_lowering(CReLU)
def _lower_crelu_rule(module: CReLU, name: str, ctx: LoweringContext) -> None:
    """Emit an electro-optic activation node."""
    ctx.emit(name, ElectronicActivation())


@register_lowering(ComplexAvgPool2d)
def _lower_avgpool_rule(module: ComplexAvgPool2d, name: str, ctx: LoweringContext) -> None:
    kernel = _as_pair(module.kernel_size)
    stride = kernel if module.stride is None else _as_pair(module.stride)
    ctx.emit(name, AvgPool2dStage(kernel_size=kernel, stride=stride))


@register_lowering(ComplexGlobalAvgPool2d)
def _lower_global_avgpool_rule(module: ComplexGlobalAvgPool2d, name: str,
                               ctx: LoweringContext) -> None:
    ctx.emit(name, GlobalAvgPool2dStage())


@register_lowering(ComplexFlatten)
def _lower_flatten_rule(module: ComplexFlatten, name: str, ctx: LoweringContext) -> None:
    ctx.emit(name, FlattenStage())


@register_lowering(ComplexSequential)
def _lower_sequential_rule(module: ComplexSequential, name: str,
                           ctx: LoweringContext) -> None:
    ctx.lower_chain(module, name)


@register_lowering(ComplexBatchNorm2d, ComplexBatchNorm1d)
def _lower_batchnorm_rule(module, name: str, ctx: LoweringContext) -> None:
    real_scale, real_shift = _batchnorm_affine(module.bn_real)
    imag_scale, imag_shift = _batchnorm_affine(module.bn_imag)
    ctx.emit(name, ElectronicBatchNorm(
        real_scale=real_scale, real_shift=real_shift,
        imag_scale=imag_scale, imag_shift=imag_shift,
        spatial=isinstance(module, ComplexBatchNorm2d)))


# --------------------------------------------------------------------------- #
# decoder-head rules
# --------------------------------------------------------------------------- #
def _calibrated(head: DecoderHead) -> Callable[[np.ndarray], np.ndarray]:
    scale, bias = head.calibration.as_arrays()

    def calibrated(logits: np.ndarray) -> np.ndarray:
        return logits * scale + bias

    return calibrated


def _paired_power_readout(head: DecoderHead) -> Callable[[np.ndarray], np.ndarray]:
    num_classes = head.num_classes
    calibrated = _calibrated(head)

    def paired_power(signal: np.ndarray) -> np.ndarray:
        power = np.abs(signal) ** 2
        summed = power[..., :num_classes] + power[..., num_classes:2 * num_classes]
        return calibrated(np.sqrt(summed + 1e-12))

    return paired_power


@register_head_lowering(MergeDecoderHead)
def _lower_merge_head(head: MergeDecoderHead, ctx: LoweringContext):
    _emit_linear(ctx, "head.merged", head.merged_layer)
    return _paired_power_readout(head)


@register_head_lowering(LinearDecoderHead)
def _lower_linear_head(head: LinearDecoderHead, ctx: LoweringContext):
    _emit_linear(ctx, "head.last", head.last_layer)
    _emit_linear(ctx, "head.decoder", head.decoder_layer)
    return _paired_power_readout(head)


@register_head_lowering(UnitaryDecoderHead)
def _lower_unitary_head(head: UnitaryDecoderHead, ctx: LoweringContext):
    _emit_linear(ctx, "head.last", head.last_layer)
    # the zero-padded modes carry no light, so deploying the first C columns
    # of the unitary as a 2C x C matrix is exactly equivalent
    weight = head.unitary.complex_weight()[:, :head.num_classes]
    ctx.emit("head.unitary", ctx.deploy_weight(weight, LinearStage(matrix=None)))
    return _paired_power_readout(head)


@register_head_lowering(CoherentDecoderHead)
def _lower_coherent_head(head: CoherentDecoderHead, ctx: LoweringContext):
    _emit_linear(ctx, "head.last", head.last_layer)
    calibrated = _calibrated(head)

    def coherent_readout(signal: np.ndarray) -> np.ndarray:
        from repro.photonics.detectors import CoherentDetector

        return calibrated(CoherentDetector().detect(signal).real)

    return coherent_readout


@register_head_lowering(PhotodiodeHead)
def _lower_photodiode_head(head: PhotodiodeHead, ctx: LoweringContext):
    _emit_linear(ctx, "head.last", head.last_layer)
    calibrated = _calibrated(head)

    def power_readout(signal: np.ndarray) -> np.ndarray:
        return calibrated(np.abs(signal))

    return power_readout


# --------------------------------------------------------------------------- #
# model lowering
# --------------------------------------------------------------------------- #
def lower_to_graph(model, method: str = "clements",
                   deploy_fn: Optional[Callable] = None) -> GraphProgram:
    """Lower a trained complex model into a photonic dataflow graph.

    Dispatches to the model's ``@register_model_lowering`` rule (the built-in
    families -- ComplexFCNN, ComplexLeNet5, ComplexResNet -- register theirs
    in :mod:`repro.models`); switches the model to eval mode so batch norms
    fold their running statistics.  ``deploy_fn`` overrides the live batched
    SVD deployment (see :meth:`LoweringContext.finalize`) -- the artifact
    store's warm path serves precompiled matrices through it.  This is the
    lowering pass behind :func:`repro.compile`.
    """
    # importing the zoo registers the built-in model and block rules; a
    # custom model only needs its own module imported (which constructing the
    # instance already did)
    import repro.models  # noqa: F401

    model.eval()
    rule = _find_rule(_MODEL_RULES, model, "lower model")
    ctx = LoweringContext(method=method, deploy_fn=deploy_fn)
    rule(model, ctx)
    return ctx.program()
