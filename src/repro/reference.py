"""The one reference switch, and the index of every fast path's oracle.

A truthy ``REPRO_FORCE_REFERENCE`` (anything but empty, ``0``, ``false``,
``no`` or ``off``) routes every switched fast path to its oracle.
:func:`enabled` is the only reader and re-reads it per call, so tests flip it
with ``monkeypatch.setenv``.  Switched (fast path -> oracle):

* native ``cchain`` kernel -> ``engine.dense_transfer`` for the dense-matrix
  build and the numpy Clements nulling chains (``_native.kernel()`` returns
  ``None``);
* ``F.im2col`` / ``F.col2im`` and every backward adjoint (picked at forward
  time by ``F.col2im_kernel()``) -> ``im2col_reference`` / ``col2im_reference``;
* ``ComplexLinear`` / ``ComplexConv2d.forward`` -> ``forward_reference``
  (``complex_{linear,conv2d}_reference``, the 4-real-op Eq. (2) form);
* training-mode batch norm: fused ``F.batch_norm`` -> the composed graph;
* compiled train-step plan -> the eager tape (``Trainer.plan_stats``
  reports ``enabled: False``).

Called directly by the tests and benchmarks instead: ``step_reference``
(SGD/Adam), ``GraphProgram.forward_reference`` (vs ``ExecutionPlan``),
``F.conv2d_reference``, ``{reck,clements}_decompose_reference`` (vs the
stack decomposition), ``engine.reference_apply`` and, per trainer,
``Trainer(compile_train_step=False)``.  Each oracle lives next to the code
it checks.
"""

from __future__ import annotations

import os


def enabled() -> bool:
    """Whether ``REPRO_FORCE_REFERENCE`` routes the fast paths to their oracles."""
    value = os.environ.get("REPRO_FORCE_REFERENCE", "").strip().lower()
    return value not in ("", "0", "false", "no", "off")
