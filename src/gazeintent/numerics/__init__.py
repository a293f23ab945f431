from gazeintent.numerics.tensor import Tensor, Tape, backward, concat
from gazeintent.numerics.ops import (
    conv1d,
    linear,
    softmax_lastaxis,
    log_softmax_lastaxis,
    layer_norm,
    scaled_dot_attention,
    split_heads,
    merge_heads,
    mse_loss,
    weighted_cross_entropy,
)
from gazeintent.numerics.adam import AdamState, adam_step, zero_grads, collect_grads
from gazeintent.numerics.gradcheck import finite_difference_check

__all__ = [
    "Tensor", "Tape", "backward", "concat",
    "conv1d", "linear", "softmax_lastaxis", "log_softmax_lastaxis", "layer_norm",
    "scaled_dot_attention", "split_heads", "merge_heads", "mse_loss", "weighted_cross_entropy",
    "AdamState", "adam_step", "zero_grads", "collect_grads",
    "finite_difference_check",
]
