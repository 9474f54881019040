"""Mini-batch iteration over in-memory NumPy datasets."""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["DataLoader"]


class DataLoader:
    """Iterate ``(inputs, targets)`` mini-batches with optional shuffling/augmentation.

    Parameters
    ----------
    inputs, targets:
        Aligned NumPy arrays; the first axis is the example axis.
    batch_size:
        Mini-batch size; the final partial batch is kept unless ``drop_last``.
    shuffle:
        Reshuffle example order at the start of every epoch.
    augmentation:
        Optional callable ``f(batch_inputs, rng) -> batch_inputs`` applied to
        every batch (training-time data augmentation).

    Shuffling and augmentation draw from *separate* RNG streams
    (:attr:`shuffle_rng` / :attr:`augment_rng`), so the epoch's example order
    is identical whether or not augmentation is enabled — which keeps ablation
    runs comparable — and :meth:`state_dict`/:meth:`load_state_dict` expose
    both streams so an interrupted run can resume with bit-identical batches.

    Resume is **batch-granular**: while an epoch is in flight the state dict
    additionally carries a *cursor* — the next batch index plus the shuffle
    RNG state captured *before* the epoch's permutation was drawn.  Restoring
    such a state replays the identical permutation (without touching the live
    stream, which is restored to its post-shuffle position) and the next
    iteration continues from the recorded batch, so a run killed mid-epoch
    resumes with exactly the batches — and exactly the augmentation draws —
    the uninterrupted run would have seen.  Epoch-boundary state dicts (the
    pre-cursor v1 format) contain no cursor and load unchanged.
    """

    def __init__(self, inputs: np.ndarray, targets: np.ndarray, batch_size: int = 32,
                 shuffle: bool = True, augmentation=None, drop_last: bool = False,
                 seed: int = 0):
        if len(inputs) != len(targets):
            raise ValueError(f"inputs ({len(inputs)}) and targets ({len(targets)}) "
                             "must have the same length")
        self.inputs = inputs
        self.targets = targets
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.augmentation = augmentation
        self.drop_last = drop_last
        self.seed = seed
        self.shuffle_rng = np.random.default_rng(seed)
        self.augment_rng = np.random.default_rng(seed + 1)
        # Mid-epoch cursor: the in-flight epoch's permutation, the index of
        # the next batch to yield, and the shuffle RNG state from just before
        # the permutation was drawn (what a resume needs to redraw it).
        self._epoch_order: np.ndarray | None = None
        self._batch_cursor = 0
        self._pre_epoch_state: dict | None = None
        self._resume_pending = False

    def __len__(self) -> int:
        full, remainder = divmod(len(self.inputs), self.batch_size)
        if remainder and not self.drop_last:
            return full + 1
        return full

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        if self._resume_pending and self._epoch_order is not None:
            # Continue the epoch restored by load_state_dict from its cursor.
            self._resume_pending = False
        else:
            self._pre_epoch_state = self.shuffle_rng.bit_generator.state
            order = np.arange(len(self.inputs))
            if self.shuffle:
                self.shuffle_rng.shuffle(order)
            self._epoch_order = order
            self._batch_cursor = 0
        order = self._epoch_order
        while True:
            start = self._batch_cursor * self.batch_size
            if start >= len(order):
                break
            batch_indices = order[start:start + self.batch_size]
            if self.drop_last and len(batch_indices) < self.batch_size:
                break
            batch_inputs = self.inputs[batch_indices]
            batch_targets = self.targets[batch_indices]
            if self.augmentation is not None:
                batch_inputs = self.augmentation(batch_inputs, self.augment_rng)
            # Advance before yielding: a checkpoint taken while the consumer
            # holds this batch records it as already consumed.
            self._batch_cursor += 1
            yield batch_inputs, batch_targets
        self._epoch_order = None
        self._pre_epoch_state = None
        self._batch_cursor = 0

    # -- resume support ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of both RNG streams, plus the mid-epoch cursor when one is live.

        Between epochs this is the v1 two-stream format; mid-epoch it adds a
        ``cursor`` with the next batch index and the pre-epoch shuffle RNG
        state (enough to redraw the in-flight permutation on resume).
        """
        state = {"shuffle_rng": self.shuffle_rng.bit_generator.state,
                 "augment_rng": self.augment_rng.bit_generator.state}
        if self._epoch_order is not None and self._pre_epoch_state is not None:
            state["cursor"] = {"batch_index": int(self._batch_cursor),
                               "pre_epoch_shuffle_rng": self._pre_epoch_state}
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (v1 epoch-boundary or v2 cursor).

        With a cursor present, the in-flight permutation is redrawn from the
        recorded pre-epoch RNG state on a throwaway generator — the live
        streams are restored to their saved (post-shuffle / mid-epoch)
        positions — and the next ``__iter__`` continues from the recorded
        batch instead of starting a fresh epoch.
        """
        self.shuffle_rng.bit_generator.state = state["shuffle_rng"]
        self.augment_rng.bit_generator.state = state["augment_rng"]
        cursor = state.get("cursor")
        if cursor is None:
            self._epoch_order = None
            self._pre_epoch_state = None
            self._batch_cursor = 0
            self._resume_pending = False
            return
        replay = np.random.default_rng()
        replay.bit_generator.state = cursor["pre_epoch_shuffle_rng"]
        order = np.arange(len(self.inputs))
        if self.shuffle:
            replay.shuffle(order)
        self._epoch_order = order
        self._pre_epoch_state = cursor["pre_epoch_shuffle_rng"]
        self._batch_cursor = int(cursor["batch_index"])
        self._resume_pending = True
