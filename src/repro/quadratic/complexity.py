"""Analytical parameter / computation cost model (Table I, Eq. (9) and Eq. (10)).

For every neuron type compared in the paper this module returns the exact
number of trainable parameters and multiply-accumulate operations (MACs) as a
function of the neuron fan-in ``n`` and, where applicable, the decomposition
rank ``k``.  The counts deliberately ignore the bias term, matching the
convention stated in Sec. II-B and Sec. III-C of the paper.

Every neuron layer class names its key of :data:`NEURON_FORMULAS` in its
``neuron_formula`` attribute, and :func:`repro.metrics.profile_model` charges
each such layer output positions × neurons ×
``neuron_complexity(neuron_formula, fan_in, rank).macs`` for the whole-model
MAC budgets of the Fig. 4 / Fig. 5 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "NeuronComplexity",
    "NEURON_FORMULAS",
    "neuron_complexity",
    "table_i_rows",
    "proposed_parameter_count",
    "proposed_mac_count",
]


@dataclass(frozen=True)
class NeuronComplexity:
    """Cost of a single neuron.

    Attributes
    ----------
    name:
        Registry key of the neuron type (e.g. ``"proposed"``, ``"quad1"``).
    formula:
        Human-readable formulation as printed in Table I.
    parameters:
        Number of trainable parameters (bias excluded).
    macs:
        Number of multiply-accumulate operations per forward evaluation.
    outputs_per_neuron:
        How many output values one neuron produces.  Every prior design emits
        a single scalar; the proposed neuron emits ``k + 1`` values because the
        intermediate features ``fᵏ`` are reused as outputs (Sec. III-B).
    """

    name: str
    formula: str
    parameters: int
    macs: int
    outputs_per_neuron: int = 1

    @property
    def parameters_per_output(self) -> float:
        """Storage cost averaged over the neuron's outputs (Sec. III-C)."""
        return self.parameters / self.outputs_per_neuron

    @property
    def macs_per_output(self) -> float:
        """Computation cost averaged over the neuron's outputs (Sec. III-C)."""
        return self.macs / self.outputs_per_neuron


def proposed_parameter_count(n: int, k: int) -> int:
    """Eq. (9): ``(k + 1) n + k`` parameters (``Qᵏ`` + ``w`` + diagonal ``Λᵏ``)."""
    return (k + 1) * n + k


def proposed_mac_count(n: int, k: int) -> int:
    """Eq. (10): ``(k + 1) n + 2k`` MACs (linear part + ``(Qᵏ)ᵀx`` + ``(fᵏ)ᵀΛᵏfᵏ``)."""
    return (k + 1) * n + 2 * k


def _linear(n: int, k: int) -> NeuronComplexity:
    return NeuronComplexity("linear", "wᵀx", parameters=n, macs=n)


def _general_quadratic(n: int, k: int) -> NeuronComplexity:
    # [17] Zoumpourlis et al.: full matrix plus linear term.
    return NeuronComplexity("general", "xᵀMx + wᵀx", parameters=n * n + n, macs=n * n + 2 * n)


def _pure_quadratic(n: int, k: int) -> NeuronComplexity:
    # [16] Mantini & Shah: full matrix, no linear term.
    return NeuronComplexity("pure", "xᵀMx", parameters=n * n, macs=n * n + n)


def _quadratic_residual(n: int, k: int) -> NeuronComplexity:
    # [23] Bu & Karpatne: two linear forms, one reused as the residual path.
    return NeuronComplexity("quad_residual", "(w₁ᵀx)(w₂ᵀx) + w₁ᵀx", parameters=2 * n, macs=2 * n)


def _factorized(n: int, k: int) -> NeuronComplexity:
    # [18] Jiang et al.: rank-k factorization with two independent factors.
    return NeuronComplexity("factorized", "xᵀQ₁ᵏ(Q₂ᵏ)ᵀx + wᵀx",
                            parameters=2 * k * n + n, macs=2 * k * n + k)


def _quad1(n: int, k: int) -> NeuronComplexity:
    # [19] Fan et al.: two linear forms multiplied plus a squared-input term.
    return NeuronComplexity("quad1", "(w₁ᵀx)(w₂ᵀx) + w₃ᵀ(x⊙²)", parameters=3 * n, macs=4 * n)


def _quad2(n: int, k: int) -> NeuronComplexity:
    # [21] Xu et al. (QuadraLib): two linear forms multiplied plus a linear term.
    return NeuronComplexity("quad2", "(w₁ᵀx)(w₂ᵀx) + w₃ᵀx", parameters=3 * n, macs=3 * n)


def _proposed(n: int, k: int) -> NeuronComplexity:
    return NeuronComplexity(
        "proposed", "{xᵀQᵏΛᵏ(Qᵏ)ᵀx + wᵀx, xᵀQᵏ}",
        parameters=proposed_parameter_count(n, k),
        macs=proposed_mac_count(n, k),
        outputs_per_neuron=k + 1)


NEURON_FORMULAS = {
    "linear": _linear,
    "general": _general_quadratic,
    "pure": _pure_quadratic,
    "quad_residual": _quadratic_residual,
    "factorized": _factorized,
    "quad1": _quad1,
    "quad2": _quad2,
    "proposed": _proposed,
}


def neuron_complexity(neuron_type: str, n: int, k: int = 1) -> NeuronComplexity:
    """Return the cost model of ``neuron_type`` for fan-in ``n`` and rank ``k``.

    ``k`` is ignored by neuron types without a rank hyper-parameter.
    """
    if neuron_type not in NEURON_FORMULAS:
        raise KeyError(f"unknown neuron type '{neuron_type}'; "
                       f"known types: {sorted(NEURON_FORMULAS)}")
    if n <= 0:
        raise ValueError(f"fan-in n must be positive, got {n}")
    if k <= 0:
        raise ValueError(f"rank k must be positive, got {k}")
    return NEURON_FORMULAS[neuron_type](n, k)


def table_i_rows(n: int, k: int) -> list[dict]:
    """Regenerate Table I for a concrete fan-in ``n`` and rank ``k``.

    Each row reports the absolute costs and the per-output averaged costs so
    the advantage of the vectorized output (Sec. III-C) is visible directly.
    """
    order = ["general", "pure", "quad_residual", "factorized", "quad1", "quad2",
             "proposed", "linear"]
    rows = []
    for name in order:
        cost = neuron_complexity(name, n, k)
        rows.append({
            "neuron": name,
            "formula": cost.formula,
            "parameters": cost.parameters,
            "macs": cost.macs,
            "outputs_per_neuron": cost.outputs_per_neuron,
            "parameters_per_output": cost.parameters_per_output,
            "macs_per_output": cost.macs_per_output,
        })
    return rows
