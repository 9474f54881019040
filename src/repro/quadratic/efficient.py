r"""The paper's efficient quadratic neuron (Sec. III) as dense and convolutional layers.

A single proposed neuron with fan-in ``n`` and decomposition rank ``k`` computes

.. math::

    fᵏ = (Qᵏ)ᵀ x,\qquad
    y = wᵀx + b + (fᵏ)ᵀ Λᵏ fᵏ,\qquad
    \text{output} = \{\, y,\; fᵏ \,\}

so it produces ``k + 1`` output values from ``(k+1)n + k`` parameters
(Eq. (9)) using ``(k+1)n + 2k`` MACs (Eq. (10)).  The intermediate projections
``fᵏ`` — which a plain rank-``k`` quadratic neuron would discard after the
summation — are concatenated to the scalar response ``y`` ("vectorized
output", Sec. III-B), which is what lets a layer reach a target width with
roughly ``1/(k+1)`` as many neurons.

Two layer flavours are provided:

* :class:`EfficientQuadraticLinear` — a dense layer of proposed neurons, used
  in MLPs and as the projection layers of the quadratic Transformer.
* :class:`EfficientQuadraticConv2d` — a convolutional layer whose filters are
  proposed neurons applied to each receptive field; the extra outputs ``fᵏ``
  are emitted as additional channels (Fig. 3, right).
"""

from __future__ import annotations

import math

import numpy as np

from ..nn import init
from ..nn.module import Module, Parameter
from ..tensor import Tensor, conv2d
from ..tensor.fused import quadratic_conv2d, quadratic_response
from .complexity import proposed_mac_count, proposed_parameter_count

__all__ = ["EfficientQuadraticLinear", "EfficientQuadraticConv2d", "neurons_for_width"]


def neurons_for_width(target_width: int, rank: int) -> int:
    """Number of proposed neurons needed to produce ``target_width`` outputs.

    Each neuron emits ``rank + 1`` values, so ``ceil(target_width / (rank+1))``
    neurons cover the requested width; the layer trims any surplus channels.
    """
    if target_width <= 0:
        raise ValueError(f"target width must be positive, got {target_width}")
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    return math.ceil(target_width / (rank + 1))


class EfficientQuadraticLinear(Module):
    """Dense layer of the proposed quadratic neurons.

    Parameters
    ----------
    in_features:
        Fan-in ``n`` of every neuron.
    num_neurons:
        Number of quadratic neurons in the layer.
    rank:
        Decomposition rank ``k`` (the paper uses ``k = 9`` for CNNs).
    vectorized_output:
        When ``True`` (paper default) the layer outputs ``num_neurons*(k+1)``
        features ``{y, fᵏ}`` per example; when ``False`` only the scalar
        responses ``y`` are emitted (ablation of Sec. III-B).
    out_features:
        Optional hard cap on the output width; surplus features produced by the
        last neuron are trimmed so the layer can drop into an architecture that
        expects an exact width.
    lambda_init:
        Standard deviation of the (small) random initialization of Λᵏ.  The
        eigenvalues start near zero so the network begins close to its linear
        counterpart and the quadratic response grows during training.

    The forward pass dispatches the fused ``quadratic_response`` op (one
    graph node, hand-derived VJP, the ``out_features`` trim included); set
    ``use_fused = False`` to fall back to the node-by-node composition of
    primitives, which produces bit-identical outputs and gradients equal up
    to rounding (the hand-derived VJP sums in another order).
    """

    neuron_formula = "proposed"
    use_fused = True

    def __init__(self, in_features: int, num_neurons: int, rank: int = 9,
                 vectorized_output: bool = True, bias: bool = True,
                 out_features: int | None = None, lambda_init: float = 0.01,
                 q_init_gain: float = 1.0, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        if rank <= 0:
            raise ValueError(f"rank must be positive, got {rank}")
        self.in_features = in_features
        self.num_neurons = num_neurons
        self.rank = rank
        self.vectorized_output = vectorized_output
        self.q_init_gain = q_init_gain

        natural_width = num_neurons * (rank + 1) if vectorized_output else num_neurons
        self.out_features = natural_width if out_features is None else out_features
        if self.out_features > natural_width:
            raise ValueError(
                f"{num_neurons} neurons with rank {rank} produce at most {natural_width} "
                f"outputs, cannot provide {self.out_features}")

        # Linear part wᵀx + b: one weight row per neuron.
        self.weight = Parameter(init.kaiming_uniform((num_neurons, in_features), rng, gain=1.0))
        self.bias = Parameter(init.zeros((num_neurons,))) if bias else None
        # Quadratic part: Qᵏ per neuron, stored as a single (n, num_neurons*k)
        # projection so fᵏ for every neuron is one matrix multiplication.
        q_init = np.concatenate(
            [init.orthogonal((in_features, rank), rng, gain=q_init_gain)
             for _ in range(num_neurons)], axis=1)
        self.q_weight = Parameter(q_init)
        # Retained eigenvalues Λᵏ (diagonal), trained with their own learning rate.
        self.lambdas = Parameter(init.normal((num_neurons, rank), rng, std=lambda_init),
                                 tag="quadratic")

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input with {self.in_features} features, got {x.shape[-1]}")
        if self.use_fused:
            return quadratic_response(
                x, self.weight, self.q_weight, self.lambdas, self.bias,
                rank=self.rank, vectorized=self.vectorized_output,
                out_features=self.out_features)
        return self._forward_unfused(x)

    def _forward_unfused(self, x: Tensor) -> Tensor:
        """Reference composition of primitives (used by tests and benchmarks)."""
        batch_shape = x.shape[:-1]
        # fᵏ for every neuron: (..., num_neurons * rank)
        projections = x @ self.q_weight
        grouped = projections.reshape(*batch_shape, self.num_neurons, self.rank)
        # y₂ᵏ = (fᵏ)ᵀ Λᵏ fᵏ per neuron.
        quadratic = (grouped * grouped * self.lambdas).sum(axis=-1)
        linear_response = x @ self.weight.T
        if self.bias is not None:
            linear_response = linear_response + self.bias
        output = linear_response + quadratic
        if self.vectorized_output:
            output = Tensor.cat([output, projections], axis=-1)
        if output.shape[-1] != self.out_features:
            output = output[..., :self.out_features]
        return output

    # -- introspection --------------------------------------------------------

    def parameter_count(self, include_bias: bool = False) -> int:
        """Analytic parameter count; matches Eq. (9) summed over neurons."""
        count = self.num_neurons * proposed_parameter_count(self.in_features, self.rank)
        if include_bias and self.bias is not None:
            count += self.num_neurons
        return count

    def mac_count(self) -> int:
        """Analytic MAC count per example; matches Eq. (10) summed over neurons."""
        return self.num_neurons * proposed_mac_count(self.in_features, self.rank)

    def __repr__(self) -> str:
        return (f"EfficientQuadraticLinear(in={self.in_features}, neurons={self.num_neurons}, "
                f"rank={self.rank}, out={self.out_features}, "
                f"vectorized={self.vectorized_output})")

    @classmethod
    def for_output_features(cls, in_features: int, out_features: int, rank: int = 9,
                            **kwargs) -> "EfficientQuadraticLinear":
        """Build a layer that emits exactly ``out_features`` values.

        This is the drop-in replacement constructor used when swapping a
        :class:`repro.nn.Linear` of shape ``(in, out)`` for proposed neurons:
        ``ceil(out / (k+1))`` neurons are instantiated and the output trimmed.
        With ``vectorized_output=False`` one neuron per output is used instead.
        """
        if kwargs.get("vectorized_output", True):
            num_neurons = neurons_for_width(out_features, rank)
        else:
            num_neurons = out_features
        return cls(in_features, num_neurons, rank=rank, out_features=out_features, **kwargs)


class EfficientQuadraticConv2d(Module):
    """Convolutional layer whose filters are the proposed quadratic neurons.

    Every filter sees a receptive field of ``n = in_channels * k_h * k_w``
    inputs and emits ``rank + 1`` channels: the quadratic response
    ``y = wᵀx + b + (fᵏ)ᵀΛᵏfᵏ`` plus the ``rank`` intermediate projections
    ``fᵏ`` (Fig. 3).  ``out_channels`` may be used to trim the natural width
    ``num_filters * (rank + 1)`` down to an exact target so the layer is a
    drop-in replacement for a standard convolution.

    The forward pass dispatches the fused ``quadratic_conv2d`` op: a single
    im2col extraction and one matmul against the stacked filter bank
    ``[w; Qᵏ]`` replace the two full convolutions (and two backward col2im
    scatters) of the unfused composition, with bit-identical results.  Set
    ``use_fused = False`` to fall back to the composition.
    """

    neuron_formula = "proposed"
    use_fused = True

    def __init__(self, in_channels: int, num_filters: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, rank: int = 9,
                 vectorized_output: bool = True, bias: bool = True,
                 out_channels: int | None = None, lambda_init: float = 0.01,
                 q_init_gain: float = np.sqrt(2.0), rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        if rank <= 0:
            raise ValueError(f"rank must be positive, got {rank}")
        self.in_channels = in_channels
        self.num_filters = num_filters
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.rank = rank
        self.vectorized_output = vectorized_output
        self.q_init_gain = q_init_gain

        natural_channels = num_filters * (rank + 1) if vectorized_output else num_filters
        self.out_channels = natural_channels if out_channels is None else out_channels
        if self.out_channels > natural_channels:
            raise ValueError(
                f"{num_filters} filters with rank {rank} produce at most {natural_channels} "
                f"channels, cannot provide {self.out_channels}")

        fan_in = in_channels * kernel_size * kernel_size
        self.fan_in = fan_in
        # Linear part: one standard filter per neuron.
        self.weight = Parameter(
            init.kaiming_normal((num_filters, in_channels, kernel_size, kernel_size), rng))
        self.bias = Parameter(init.zeros((num_filters,))) if bias else None
        # Quadratic part: Qᵏ realised as `num_filters * rank` convolution filters;
        # each group of `rank` filters holds the orthonormal columns of one neuron's Qᵏ.
        # The orthonormal columns are scaled by a ReLU-friendly gain (√2 by
        # default) so that the projection channels fᵏ start with the same
        # activation variance as a Kaiming-initialized convolution; without the
        # gain the effective signal through deep stacks of quadratic layers is
        # attenuated and training slows down noticeably.
        q_columns = np.stack(
            [init.orthogonal((fan_in, rank), rng, gain=q_init_gain).T.reshape(
                rank, in_channels, kernel_size, kernel_size)
             for _ in range(num_filters)], axis=0)
        self.q_weight = Parameter(q_columns.reshape(num_filters * rank, in_channels,
                                                    kernel_size, kernel_size))
        self.lambdas = Parameter(init.normal((num_filters, rank), rng, std=lambda_init),
                                 tag="quadratic")

    def forward(self, x: Tensor) -> Tensor:
        if self.use_fused:
            output = quadratic_conv2d(
                x, self.weight, self.q_weight, self.lambdas, self.bias,
                stride=self.stride, padding=self.padding,
                rank=self.rank, vectorized=self.vectorized_output)
        else:
            output = self._forward_unfused(x)
        if output.shape[1] != self.out_channels:
            output = output[:, :self.out_channels]
        return output

    def _forward_unfused(self, x: Tensor) -> Tensor:
        """Reference composition of primitives (used by tests and benchmarks)."""
        batch = x.shape[0]
        # fᵏ maps: (N, num_filters * rank, H', W')
        projections = conv2d(x, self.q_weight, None, stride=self.stride, padding=self.padding)
        height, width = projections.shape[2], projections.shape[3]
        grouped = projections.reshape(batch, self.num_filters, self.rank, height, width)
        lambdas = self.lambdas.reshape(1, self.num_filters, self.rank, 1, 1)
        quadratic = (grouped * grouped * lambdas).sum(axis=2)
        linear_response = conv2d(x, self.weight, self.bias, stride=self.stride,
                                 padding=self.padding)
        response = linear_response + quadratic
        if not self.vectorized_output:
            return response
        return Tensor.cat([response, projections], axis=1)

    # -- introspection --------------------------------------------------------

    def parameter_count(self, include_bias: bool = False) -> int:
        """Analytic parameter count (Eq. (9) per filter)."""
        count = self.num_filters * proposed_parameter_count(self.fan_in, self.rank)
        if include_bias and self.bias is not None:
            count += self.num_filters
        return count

    def mac_count_per_position(self) -> int:
        """Analytic MACs per output spatial position (Eq. (10) per filter)."""
        return self.num_filters * proposed_mac_count(self.fan_in, self.rank)

    def __repr__(self) -> str:
        return (f"EfficientQuadraticConv2d(in={self.in_channels}, filters={self.num_filters}, "
                f"k={self.kernel_size}, rank={self.rank}, out_channels={self.out_channels}, "
                f"stride={self.stride}, padding={self.padding})")

    @classmethod
    def for_output_channels(cls, in_channels: int, out_channels: int, kernel_size: int,
                            rank: int = 9, **kwargs) -> "EfficientQuadraticConv2d":
        """Drop-in replacement for ``Conv2d(in_channels, out_channels, ...)``.

        Instantiates ``ceil(out_channels / (rank+1))`` quadratic filters and
        trims the concatenated output to exactly ``out_channels`` channels.
        With ``vectorized_output=False`` every output channel needs its own
        neuron, so ``out_channels`` filters are instantiated instead.
        """
        if kwargs.get("vectorized_output", True):
            num_filters = neurons_for_width(out_channels, rank)
        else:
            num_filters = out_channels
        return cls(in_channels, num_filters, kernel_size, rank=rank,
                   out_channels=out_channels, **kwargs)
