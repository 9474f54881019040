"""Encoder–decoder Transformer with switchable neuron type in the attention projections.

The paper's Table II deploys the proposed quadratic neuron in "all linear
projection operators in the multi-head attention blocks" of a Transformer
trained on WMT14 English→German.  This module implements the standard
"Attention Is All You Need" architecture (post-norm, sinusoidal positions,
label-smoothing-friendly output head) on top of the autograd engine, with the
query/key/value/output projections built through the dense neuron factory so a
single ``neuron_type`` string switches between the baseline Transformer and
the quadratic Transformer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .. import nn
from ..quadratic.factory import make_dense
from ..tensor import Tensor, no_grad
from ..tensor import functional as F
from .registry import register_model

__all__ = [
    "sinusoidal_positions",
    "MultiHeadAttention",
    "FeedForward",
    "EncoderLayer",
    "DecoderLayer",
    "Transformer",
    "make_padding_mask",
    "make_causal_mask",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..serve.generate.state import DecodeState

_NEG_INF = -1e9


def sinusoidal_positions(max_len: int, model_dim: int) -> np.ndarray:
    """Sinusoidal positional encoding table of shape ``(max_len, model_dim)``."""
    positions = np.arange(max_len)[:, None].astype(np.float64)
    dims = np.arange(model_dim)[None, :].astype(np.float64)
    angle_rates = 1.0 / np.power(10000.0, (2 * (dims // 2)) / model_dim)
    angles = positions * angle_rates
    table = np.zeros((max_len, model_dim), dtype=np.float32)
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    return table


def make_padding_mask(token_ids: np.ndarray, pad_id: int) -> np.ndarray:
    """Return an additive attention mask of shape ``(batch, 1, 1, seq)``.

    Padding positions receive a large negative value so that softmax assigns
    them (numerically) zero attention.
    """
    mask = (np.asarray(token_ids) == pad_id).astype(np.float32) * _NEG_INF
    return mask[:, None, None, :]


def make_causal_mask(seq_len: int) -> np.ndarray:
    """Upper-triangular additive mask of shape ``(1, 1, seq, seq)``."""
    mask = np.triu(np.ones((seq_len, seq_len), dtype=np.float32), k=1) * _NEG_INF
    return mask[None, None, :, :]


class MultiHeadAttention(nn.Module):
    """Multi-head scaled dot-product attention with factory-built projections."""

    def __init__(self, model_dim: int, num_heads: int, neuron_type: str = "linear",
                 rank: int = 4, dropout: float = 0.0, rng: np.random.Generator | None = None,
                 neuron_kwargs: dict | None = None):
        super().__init__()
        if model_dim % num_heads != 0:
            raise ValueError(f"model_dim {model_dim} must be divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng()
        neuron_kwargs = neuron_kwargs or {}
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        self.neuron_type = neuron_type
        self.query_proj = make_dense(neuron_type, model_dim, model_dim, rank=rank, rng=rng,
                                     **neuron_kwargs)
        self.key_proj = make_dense(neuron_type, model_dim, model_dim, rank=rank, rng=rng,
                                   **neuron_kwargs)
        self.value_proj = make_dense(neuron_type, model_dim, model_dim, rank=rank, rng=rng,
                                     **neuron_kwargs)
        self.output_proj = make_dense(neuron_type, model_dim, model_dim, rank=rank, rng=rng,
                                      **neuron_kwargs)
        self.dropout = nn.Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, seq_len, _ = x.shape
        return x.reshape(batch, seq_len, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, _, seq_len, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq_len, self.model_dim)

    def forward(self, query: Tensor, key: Tensor, value: Tensor,
                mask: np.ndarray | None = None) -> Tensor:
        q = self._split_heads(self.query_proj(query))
        k = self._split_heads(self.key_proj(key))
        v = self._split_heads(self.value_proj(value))

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            scores = scores + Tensor(mask)
        attention = F.attention_softmax(scores, axis=-1)
        attention = self.dropout(attention)
        context = self._merge_heads(attention @ v)
        return self.output_proj(context)

    # -- incremental decoding --------------------------------------------------

    def _attend(self, q: Tensor, keys: np.ndarray, values: np.ndarray,
                mask: np.ndarray | None) -> Tensor:
        """Attend a projected query against raw key/value arrays (cache path)."""
        scores = (q @ Tensor(keys.transpose(0, 1, 3, 2))) * (1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            scores = scores + Tensor(mask)
        attention = F.attention_softmax(scores, axis=-1)
        attention = self.dropout(attention)
        context = self._merge_heads(attention @ Tensor(values))
        return self.output_proj(context)

    def project_memory(self, memory: Tensor) -> tuple[np.ndarray, np.ndarray]:
        """Project encoder memory into split-head key/value arrays, once."""
        keys = self._split_heads(self.key_proj(memory))
        values = self._split_heads(self.value_proj(memory))
        return keys.data, values.data

    def step(self, x: Tensor, key_cache: np.ndarray, value_cache: np.ndarray,
             rows: np.ndarray, steps: np.ndarray, window: int,
             mask: np.ndarray | None) -> Tensor:
        """Self-attend one new token per row against the cached prefix.

        Projects the single-token input, writes the new key/value into each
        row's cache column ``steps[r]``, and attends against the first
        ``window`` cached columns.  The padding entries of ``mask`` absorb
        every column a row has not filled, so rows at different depths share
        one batched step.
        """
        q = self._split_heads(self.query_proj(x))
        k = self._split_heads(self.key_proj(x))
        v = self._split_heads(self.value_proj(x))
        key_cache[rows, :, steps, :] = k.data[:, :, 0, :]
        value_cache[rows, :, steps, :] = v.data[:, :, 0, :]
        keys = key_cache[rows, :, :window, :]
        values = value_cache[rows, :, :window, :]
        return self._attend(q, keys, values, mask)

    def cached(self, x: Tensor, keys: np.ndarray, values: np.ndarray,
               rows: np.ndarray, mask: np.ndarray | None) -> Tensor:
        """Cross-attend one new token per row against pre-projected memory."""
        q = self._split_heads(self.query_proj(x))
        return self._attend(q, keys[rows], values[rows], mask)


class FeedForward(nn.Module):
    """Position-wise feed-forward block (kept linear, as in the paper)."""

    def __init__(self, model_dim: int, hidden_dim: int, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.expand = nn.Linear(model_dim, hidden_dim, rng=rng)
        self.relu = nn.ReLU()
        self.contract = nn.Linear(hidden_dim, model_dim, rng=rng)
        self.dropout = nn.Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.contract(self.dropout(self.relu(self.expand(x))))


class EncoderLayer(nn.Module):
    """Post-norm Transformer encoder layer."""

    def __init__(self, model_dim: int, num_heads: int, hidden_dim: int,
                 neuron_type: str = "linear", rank: int = 4, dropout: float = 0.0,
                 rng: np.random.Generator | None = None, neuron_kwargs: dict | None = None):
        super().__init__()
        self.self_attention = MultiHeadAttention(model_dim, num_heads, neuron_type, rank,
                                                 dropout, rng, neuron_kwargs)
        self.attention_norm = nn.LayerNorm(model_dim)
        self.feed_forward = FeedForward(model_dim, hidden_dim, dropout, rng)
        self.feed_forward_norm = nn.LayerNorm(model_dim)
        self.dropout = nn.Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        x = self.attention_norm(x + self.dropout(self.self_attention(x, x, x, mask)))
        return self.feed_forward_norm(x + self.dropout(self.feed_forward(x)))


class DecoderLayer(nn.Module):
    """Post-norm Transformer decoder layer with masked self- and cross-attention."""

    def __init__(self, model_dim: int, num_heads: int, hidden_dim: int,
                 neuron_type: str = "linear", rank: int = 4, dropout: float = 0.0,
                 rng: np.random.Generator | None = None, neuron_kwargs: dict | None = None):
        super().__init__()
        self.self_attention = MultiHeadAttention(model_dim, num_heads, neuron_type, rank,
                                                 dropout, rng, neuron_kwargs)
        self.self_norm = nn.LayerNorm(model_dim)
        self.cross_attention = MultiHeadAttention(model_dim, num_heads, neuron_type, rank,
                                                  dropout, rng, neuron_kwargs)
        self.cross_norm = nn.LayerNorm(model_dim)
        self.feed_forward = FeedForward(model_dim, hidden_dim, dropout, rng)
        self.feed_forward_norm = nn.LayerNorm(model_dim)
        self.dropout = nn.Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, memory: Tensor, self_mask: np.ndarray | None,
                memory_mask: np.ndarray | None) -> Tensor:
        x = self.self_norm(x + self.dropout(self.self_attention(x, x, x, self_mask)))
        x = self.cross_norm(x + self.dropout(self.cross_attention(x, memory, memory,
                                                                  memory_mask)))
        return self.feed_forward_norm(x + self.dropout(self.feed_forward(x)))

    def step(self, x: Tensor, state: "DecodeState", index: int, rows: np.ndarray,
             steps: np.ndarray, window: int, self_mask: np.ndarray | None,
             memory_mask: np.ndarray | None) -> Tensor:
        """One-token decoder layer pass against the caches of layer ``index``."""
        x = self.self_norm(x + self.dropout(self.self_attention.step(
            x, state.self_keys[index], state.self_values[index], rows, steps,
            window, self_mask)))
        x = self.cross_norm(x + self.dropout(self.cross_attention.cached(
            x, state.memory_keys[index], state.memory_values[index], rows,
            memory_mask)))
        return self.feed_forward_norm(x + self.dropout(self.feed_forward(x)))


@register_model("transformer")
class Transformer(nn.Module):
    """Encoder–decoder Transformer for sequence-to-sequence translation.

    Parameters
    ----------
    src_vocab_size / tgt_vocab_size:
        Vocabulary sizes of the source and target languages.
    model_dim, num_heads, num_layers, hidden_dim:
        Standard Transformer hyper-parameters (the paper follows the base
        configuration of Vaswani et al.; the benchmarks use a scaled-down
        version).
    neuron_type:
        Neuron used for the attention projections (``"linear"`` reproduces the
        baseline row of Table II, ``"proposed"`` the quadratic rows).
    rank:
        Decomposition rank ``k`` of the proposed neuron.
    """

    def __init__(self, src_vocab_size: int, tgt_vocab_size: int, model_dim: int = 64,
                 num_heads: int = 4, num_layers: int = 2, hidden_dim: int = 128,
                 max_len: int = 128, dropout: float = 0.0, neuron_type: str = "linear",
                 rank: int = 4, pad_id: int = 0, neuron_kwargs: dict | None = None,
                 seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.model_dim = model_dim
        self.pad_id = pad_id
        self.neuron_type = neuron_type
        self.max_len = max_len

        self.src_embedding = nn.Embedding(src_vocab_size, model_dim, rng=rng,
                                          padding_idx=pad_id)
        self.tgt_embedding = nn.Embedding(tgt_vocab_size, model_dim, rng=rng,
                                          padding_idx=pad_id)
        self.register_buffer("positions", sinusoidal_positions(max_len, model_dim))
        self.embedding_dropout = nn.Dropout(dropout, rng=rng)

        self.encoder_layers = nn.ModuleList([
            EncoderLayer(model_dim, num_heads, hidden_dim, neuron_type, rank, dropout, rng,
                         neuron_kwargs)
            for _ in range(num_layers)])
        self.decoder_layers = nn.ModuleList([
            DecoderLayer(model_dim, num_heads, hidden_dim, neuron_type, rank, dropout, rng,
                         neuron_kwargs)
            for _ in range(num_layers)])
        self.generator = nn.Linear(model_dim, tgt_vocab_size, rng=rng)

    # -- embedding helpers -----------------------------------------------------

    def _embed(self, embedding: nn.Embedding, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        seq_len = token_ids.shape[1]
        if seq_len > self.max_len:
            raise ValueError(f"sequence length {seq_len} exceeds max_len {self.max_len}")
        scaled = embedding(token_ids) * np.sqrt(self.model_dim)
        positions = Tensor(self._buffers["positions"][:seq_len][None, :, :])
        return self.embedding_dropout(scaled + positions)

    # -- core passes -------------------------------------------------------------

    def encode(self, src_ids: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Run the encoder; returns the memory and the source padding mask."""
        src_mask = make_padding_mask(src_ids, self.pad_id)
        memory = self._embed(self.src_embedding, src_ids)
        for layer in self.encoder_layers:
            memory = layer(memory, src_mask)
        return memory, src_mask

    def decode(self, tgt_ids: np.ndarray, memory: Tensor, src_mask: np.ndarray) -> Tensor:
        """Run the decoder over ``tgt_ids`` given encoder ``memory``; returns logits."""
        tgt_ids = np.asarray(tgt_ids, dtype=np.int64)
        seq_len = tgt_ids.shape[1]
        self_mask = make_causal_mask(seq_len) + make_padding_mask(tgt_ids, self.pad_id)
        x = self._embed(self.tgt_embedding, tgt_ids)
        for layer in self.decoder_layers:
            x = layer(x, memory, self_mask, src_mask)
        return self.generator(x)

    def forward(self, src_ids: np.ndarray, tgt_ids: np.ndarray) -> Tensor:
        """Teacher-forced forward pass; returns logits of shape ``(B, T_tgt, V)``."""
        memory, src_mask = self.encode(src_ids)
        return self.decode(tgt_ids, memory, src_mask)

    # -- incremental decoding ----------------------------------------------------

    def new_decode_state(self, slots: int, max_len: int | None = None,
                         src_capacity: int | None = None,
                         initial_capacity: int | None = None) -> "DecodeState":
        """Allocate a :class:`DecodeState` sized for this model's decoder."""
        from ..serve.generate.state import DecodeState

        attention = self.decoder_layers[0].self_attention
        max_len = self.max_len if max_len is None else min(int(max_len), self.max_len)
        src_capacity = min(int(src_capacity or self.max_len), self.max_len)
        # The embedding scale np.sqrt(model_dim) is a strong float64 NumPy
        # scalar (only Python scalars are weak at apply_op), so the whole
        # forward computes in the promoted dtype — caches must match it
        # exactly for the byte-identity guarantee to hold.  The transformer
        # stays float64 by choice: moving it to float32 means re-verifying
        # decode_step's gemm-blocking argument for sgemm.
        weights = self.tgt_embedding.weight.data
        dtype = np.result_type(weights.dtype, np.sqrt(self.model_dim))
        kwargs = {} if initial_capacity is None else \
            {"initial_capacity": initial_capacity}
        return DecodeState(slots=slots, num_layers=len(self.decoder_layers),
                           num_heads=attention.num_heads,
                           head_dim=attention.head_dim, max_len=max_len,
                           src_capacity=src_capacity, dtype=dtype, **kwargs)

    def prefill(self, state: "DecodeState", rows: np.ndarray,
                src_ids: np.ndarray) -> "DecodeState":
        """Encode ``src_ids`` and install the results into ``rows`` of ``state``.

        Runs the encoder once, projects the memory through every decoder
        layer's cross-attention key/value projections, and resets the rows so
        they are ready for :meth:`decode_step` from position zero.
        """
        src_ids = np.asarray(src_ids, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        if src_ids.ndim != 2:
            raise ValueError(f"src_ids must be 2-D (rows, source_len), got shape "
                             f"{src_ids.shape}")
        if src_ids.shape[0] != rows.shape[0]:
            raise ValueError(f"src_ids has {src_ids.shape[0]} rows but {rows.shape[0]} "
                             f"slots were given")
        source_len = src_ids.shape[1]
        if source_len > state.src_capacity:
            raise ValueError(f"source length {source_len} exceeds state src_capacity "
                             f"{state.src_capacity}")
        with no_grad():
            memory, src_mask = self.encode(src_ids)
            state.reset_rows(rows)
            for index, layer in enumerate(self.decoder_layers):
                keys, values = layer.cross_attention.project_memory(memory)
                state.memory_keys[index][rows, :, :source_len, :] = keys
                state.memory_values[index][rows, :, :source_len, :] = values
            state.src_mask[rows, :, :, :source_len] = src_mask
        return state

    def start_decode(self, src_ids: np.ndarray,
                     max_len: int | None = None) -> "DecodeState":
        """Allocate a state for a batch of sources and prefill every row."""
        src_ids = np.asarray(src_ids, dtype=np.int64)
        state = self.new_decode_state(src_ids.shape[0], max_len=max_len,
                                      src_capacity=src_ids.shape[1])
        return self.prefill(state, np.arange(src_ids.shape[0]), src_ids)

    def decode_step(self, state: "DecodeState", next_tokens: np.ndarray,
                    rows: np.ndarray | None = None) -> np.ndarray:
        """Feed one token per row through the decoder; return ``(rows, V)`` logits.

        Byte-identical to running :meth:`decode` over the full prefix and
        reading the last position: unfilled/pad cache columns carry an
        additive ``-1e9`` mask, softmax turns them into exactly-zero weights,
        and zero-weight terms do not perturb the matmul reductions.

        Domain of the guarantee: attention windows up to 15 positions —
        which covers the translation task's entire ``max_len`` 16 decode
        (``max_len - 1`` steps).  At window 16 the BLAS switches its K=16
        reduction to a different accumulator grouping, and the full-prefix
        recompute *retroactively changes the bytes of its own earlier rows*
        (``decode`` over 16 positions disagrees in the last bits with
        ``decode`` over 2 positions about row 1).  A caching decoder cannot
        match a target that rewrites its history, so beyond window 15 the
        two paths agree to ~1e-15 per logit — in practice always the same
        argmax, and greedy token streams stay identical.

        Kernel-matching subtlety: every matmul in the decoder runs one gemm
        per batch row whose M equals that row's query count, and the bytes of
        an output row depend on where it falls in the kernel's M-blocking —
        M=1 routes to gemv, and for output widths with a SIMD remainder
        (e.g. an odd-sized vocabulary projection) a row in a partial tail
        block accumulates differently from a row in a full-width block.  The
        full-prefix recompute for a row of prefix length T reads the LAST
        row of an M=T gemm, which sits in a tail block of width ``T mod 4``
        (a full block when T divides evenly).  Replicating the new token to
        ``1`` (T=1), ``4`` (T ≡ 0 mod 4) or ``2`` (otherwise) query
        positions puts row 0 of the incremental gemm in a block that
        produces those exact bytes — verified across every matmul shape the
        decoder uses.  Rows at different replication counts run as separate
        forwards.  Depth-0 rows additionally run a two-position forward
        purely to rewrite their caches: the recompute later produces
        position 0's keys/values with a gemm kernel, not the gemv pass that
        produced the first logits, and the caches must hold the gemm bytes
        (the cached projections all have SIMD-friendly widths, whose row
        bytes are block-position-independent for M >= 2).
        """
        next_tokens = np.asarray(next_tokens, dtype=np.int64)
        if rows is None:
            rows = np.arange(next_tokens.shape[0], dtype=np.int64)
        else:
            rows = np.asarray(rows, dtype=np.int64)
        if next_tokens.shape != rows.shape:
            raise ValueError(f"next_tokens shape {next_tokens.shape} must match rows "
                             f"shape {rows.shape}")
        steps = state.lengths[rows]
        if steps.size == 0:
            raise ValueError("decode_step called with no rows")
        if int(steps.max()) >= state.max_len:
            raise ValueError(f"decode position {int(steps.max())} exceeds max_len "
                             f"{state.max_len}")
        state.ensure_capacity(int(steps.max()) + 1)
        state.key_mask[rows, steps] = np.where(
            next_tokens == self.pad_id, np.float32(_NEG_INF), np.float32(0.0))
        logits = np.empty((rows.shape[0], self.generator.out_features),
                          dtype=state.dtype)
        replication = np.where(steps == 0, 1,
                               np.where((steps + 1) % 4 == 0, 4, 2))
        for positions in (1, 2, 4):
            members = replication == positions
            if not members.any():
                continue
            logits[members] = self._step_group(
                state, next_tokens[members], rows[members], steps[members],
                positions=positions)
            if positions == 1:
                self._step_group(state, next_tokens[members], rows[members],
                                 steps[members], positions=2)
        state.lengths[rows] = steps + 1
        return logits

    def _step_group(self, state: "DecodeState", next_tokens: np.ndarray,
                    rows: np.ndarray, steps: np.ndarray,
                    positions: int) -> np.ndarray:
        """One incremental forward over rows that share a kernel regime."""
        window = int(steps.max()) + 1
        tokens = np.repeat(next_tokens[:, None], positions, axis=1)
        with no_grad():
            scaled = self.tgt_embedding(tokens) * np.sqrt(self.model_dim)
            position_codes = Tensor(self._buffers["positions"][steps][:, None, :])
            x = self.embedding_dropout(scaled + position_codes)
            self_mask = state.key_mask[rows, :window][:, None, None, :]
            memory_mask = state.src_mask[rows]
            for index, layer in enumerate(self.decoder_layers):
                x = layer.step(x, state, index, rows, steps, window, self_mask,
                               memory_mask)
            logits = self.generator(x)
        return logits.data[:, 0, :]

    # -- inference ---------------------------------------------------------------

    def greedy_decode(self, src_ids: np.ndarray, bos_id: int, eos_id: int,
                      max_len: int | None = None) -> list[list[int]]:
        """Greedy autoregressive decoding via the incremental KV-cached path.

        Produces exactly the same outputs as :meth:`greedy_decode_reference`
        (the full-prefix recompute) but runs each step over only the newest
        token and drops rows from the batch the moment they finish.
        """
        max_len = max_len or self.max_len
        src_ids = np.asarray(src_ids, dtype=np.int64)
        batch = src_ids.shape[0]
        outputs: list[list[int]] = [[] for _ in range(batch)]
        with no_grad():
            state = self.start_decode(src_ids, max_len=max_len)
            active = np.arange(batch, dtype=np.int64)
            tokens = np.full(batch, bos_id, dtype=np.int64)
            for _ in range(max_len - 1):
                logits = self.decode_step(state, tokens[active], rows=active)
                next_tokens = logits.argmax(axis=-1)
                keep = np.ones(active.shape[0], dtype=bool)
                for position, row in enumerate(active):
                    token = int(next_tokens[position])
                    if token == eos_id or token == self.pad_id:
                        keep[position] = False
                    else:
                        outputs[int(row)].append(token)
                        tokens[int(row)] = token
                active = active[keep]
                if active.size == 0:
                    break
        return outputs

    def greedy_decode_reference(self, src_ids: np.ndarray, bos_id: int, eos_id: int,
                                max_len: int | None = None) -> list[list[int]]:
        """Reference greedy decoding by full-prefix recompute (O(T²) per row).

        Kept as the ground truth the incremental path is byte-compared
        against; :meth:`greedy_decode` is the production path.
        """
        max_len = max_len or self.max_len
        src_ids = np.asarray(src_ids, dtype=np.int64)
        batch = src_ids.shape[0]
        with no_grad():
            memory, src_mask = self.encode(src_ids)
            generated = np.full((batch, 1), bos_id, dtype=np.int64)
            finished = np.zeros(batch, dtype=bool)
            for _ in range(max_len - 1):
                logits = self.decode(generated, memory, src_mask)
                next_tokens = logits.data[:, -1, :].argmax(axis=-1)
                next_tokens = np.where(finished, self.pad_id, next_tokens)
                generated = np.concatenate([generated, next_tokens[:, None]], axis=1)
                finished |= next_tokens == eos_id
                if finished.all():
                    break
        outputs = []
        for row in generated:
            tokens = []
            for token in row[1:]:
                if token == eos_id or token == self.pad_id:
                    break
                tokens.append(int(token))
            outputs.append(tokens)
        return outputs
