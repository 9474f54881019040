"""Tests for the data substrate: synthetic images, augmentation, loaders, translation."""

import numpy as np
import pytest

from repro.data import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    Compose,
    DataLoader,
    SyntheticImageClassification,
    SyntheticTranslationTask,
    Vocabulary,
    random_crop,
    random_horizontal_flip,
    standard_cifar_augmentation,
)


class TestSyntheticImages:
    def test_shapes_and_dtypes(self):
        data = SyntheticImageClassification(num_classes=6, image_size=10, train_size=40,
                                            test_size=12, seed=0)
        assert data.train_images.shape == (40, 3, 10, 10)
        assert data.test_images.shape == (12, 3, 10, 10)
        assert data.train_images.dtype == np.float32
        assert data.train_labels.dtype == np.int64

    def test_labels_in_range(self):
        data = SyntheticImageClassification(num_classes=6, train_size=50, test_size=10, seed=1)
        assert data.train_labels.min() >= 0
        assert data.train_labels.max() < 6

    def test_deterministic_given_seed(self):
        a = SyntheticImageClassification(train_size=20, test_size=5, seed=7)
        b = SyntheticImageClassification(train_size=20, test_size=5, seed=7)
        np.testing.assert_allclose(a.train_images, b.train_images)
        np.testing.assert_array_equal(a.train_labels, b.train_labels)

    def test_different_seeds_differ(self):
        a = SyntheticImageClassification(train_size=20, test_size=5, seed=1)
        b = SyntheticImageClassification(train_size=20, test_size=5, seed=2)
        assert not np.allclose(a.train_images, b.train_images)

    def test_normalization(self):
        data = SyntheticImageClassification(train_size=200, test_size=20, seed=3)
        assert abs(float(data.train_images.mean())) < 0.05
        assert float(data.train_images.std()) == pytest.approx(1.0, abs=0.05)

    def test_classes_are_distinguishable(self):
        """Mean images of different classes should differ more than within-class noise."""
        data = SyntheticImageClassification(num_classes=4, train_size=200, test_size=20,
                                            second_order_fraction=0.0, seed=4)
        means = [data.train_images[data.train_labels == c].mean(axis=0) for c in range(4)]
        gaps = [np.abs(means[i] - means[j]).mean()
                for i in range(4) for j in range(i + 1, 4)]
        assert min(gaps) > 0.05

    def test_describe_and_len(self):
        data = SyntheticImageClassification(train_size=30, test_size=5, seed=0)
        assert len(data) == 30
        description = data.describe()
        assert description["train_size"] == 30

    def test_describe_config_matches_built_dataset(self):
        overrides = {"num_classes": 5, "image_size": 8, "train_size": 12, "test_size": 4,
                     "seed": 9}
        built = SyntheticImageClassification(**overrides).describe()
        assert SyntheticImageClassification.describe_config(**overrides) == built
        assert list(built) == list(SyntheticImageClassification.DESCRIBE_KEYS)

    def test_channel_count_is_configurable(self):
        data = SyntheticImageClassification(channels=1, image_size=8, train_size=6,
                                            test_size=2, seed=0)
        assert data.train_images.shape == (6, 1, 8, 8)
        assert data.test_images.shape == (2, 1, 8, 8)


class TestAugmentation:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.images = np.random.default_rng(1).standard_normal((8, 3, 10, 10)).astype(np.float32)

    def test_random_crop_preserves_shape(self):
        assert random_crop(self.images, 2, self.rng).shape == self.images.shape

    def test_random_crop_zero_padding_is_identity(self):
        np.testing.assert_allclose(random_crop(self.images, 0, self.rng), self.images)

    def test_flip_reverses_width(self):
        flipped = random_horizontal_flip(self.images, self.rng, probability=1.0)
        np.testing.assert_allclose(flipped, self.images[:, :, :, ::-1])

    def test_flip_probability_zero_is_identity(self):
        unflipped = random_horizontal_flip(self.images, self.rng, probability=0.0)
        np.testing.assert_allclose(unflipped, self.images)

    def test_compose_and_standard_pipeline(self):
        pipeline = standard_cifar_augmentation(padding=2)
        assert isinstance(pipeline, Compose)
        out = pipeline(self.images, self.rng)
        assert out.shape == self.images.shape


class TestDataLoader:
    def setup_method(self):
        self.inputs = np.arange(20, dtype=np.float32).reshape(10, 2)
        self.targets = np.arange(10)

    def test_batches_cover_all_examples(self):
        loader = DataLoader(self.inputs, self.targets, batch_size=3, shuffle=False)
        seen = np.concatenate([targets for _, targets in loader])
        np.testing.assert_array_equal(np.sort(seen), self.targets)
        assert len(loader) == 4

    def test_drop_last(self):
        loader = DataLoader(self.inputs, self.targets, batch_size=3, shuffle=False,
                            drop_last=True)
        assert len(loader) == 3
        assert all(len(targets) == 3 for _, targets in loader)

    def test_shuffle_changes_order_but_not_content(self):
        loader = DataLoader(self.inputs, self.targets, batch_size=10, shuffle=True, seed=3)
        (_, first_epoch), = list(loader)
        (_, second_epoch), = list(loader)
        assert set(first_epoch) == set(self.targets)
        assert not np.array_equal(first_epoch, second_epoch)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            DataLoader(self.inputs, self.targets[:5])

    def test_augmentation_applied(self):
        loader = DataLoader(self.inputs, self.targets, batch_size=5, shuffle=False,
                            augmentation=lambda batch, rng: batch * 0.0)
        batch_inputs, _ = next(iter(loader))
        np.testing.assert_allclose(batch_inputs, 0.0)


class TestVocabulary:
    def test_specials_fixed_ids(self):
        vocab = Vocabulary(["apple", "pear"])
        assert vocab.token_to_id["<pad>"] == PAD_ID
        assert vocab.token_to_id["<bos>"] == BOS_ID
        assert vocab.token_to_id["<eos>"] == EOS_ID
        assert vocab.token_to_id["<unk>"] == UNK_ID

    def test_encode_decode_roundtrip(self):
        vocab = Vocabulary(["a", "b", "c"])
        ids = vocab.encode(["a", "c"], add_bos=True, add_eos=True)
        assert ids[0] == BOS_ID and ids[-1] == EOS_ID
        assert vocab.decode(ids) == ["a", "c"]

    def test_unknown_token_maps_to_unk(self):
        vocab = Vocabulary(["a"])
        assert vocab.encode(["zzz"], add_eos=False) == [UNK_ID]

    def test_duplicates_ignored(self):
        vocab = Vocabulary(["a", "a", "b"])
        assert len(vocab) == 4 + 2

    def test_pad_batch(self):
        batch = Vocabulary.pad_batch([[5, 6], [7]], max_len=4)
        np.testing.assert_array_equal(batch, [[5, 6, 0, 0], [7, 0, 0, 0]])

    def test_pad_batch_truncates(self):
        batch = Vocabulary.pad_batch([[1, 2, 3, 4, 5]], max_len=3)
        assert batch.shape == (1, 3)


class TestTranslationTask:
    def setup_method(self):
        self.task = SyntheticTranslationTask(train_size=60, test_size=12, seed=0)

    def test_split_sizes(self):
        assert len(self.task.train_pairs) == 60
        assert len(self.task.test_pairs) == 12

    def test_deterministic(self):
        other = SyntheticTranslationTask(train_size=60, test_size=12, seed=0)
        assert [pair.source_text for pair in other.train_pairs] == \
            [pair.source_text for pair in self.task.train_pairs]

    def test_target_is_verb_final(self):
        """In single-clause sentences the target verb must be the last word."""
        verb_targets = {"sieht", "mag", "findet", "nimmt", "haelt", "will", "kauft", "malt"}
        for pair in self.task.train_pairs:
            if "und" in pair.target_tokens:
                continue
            words = [token for token in pair.target_tokens if token not in {".", "!"}]
            assert words[-1] in verb_targets

    def test_nouns_capitalized_in_target(self):
        for pair in self.task.train_pairs[:20]:
            capitalized = [token for token in pair.target_tokens if token[0].isupper()]
            assert capitalized, pair.target_text

    def test_punctuation_attached_in_surface_text(self):
        for pair in self.task.train_pairs[:20]:
            assert pair.target_text.endswith((".", "!"))
            assert " ." not in pair.target_text

    def test_encoded_arrays_shapes_and_shift(self):
        source, decoder_input, decoder_target = self.task.training_arrays()
        assert source.shape == (60, self.task.max_len)
        assert decoder_input.shape == decoder_target.shape
        # Teacher forcing: input starts with <bos>, target ends each sequence with <eos>.
        assert np.all(decoder_input[:, 0] == BOS_ID)
        assert np.all(decoder_target != BOS_ID)

    def test_references_and_hypotheses_roundtrip(self):
        references = self.task.references()
        assert len(references) == 12
        ids = [self.task.target_vocab.encode(pair.target_tokens, add_eos=False)
               for pair in self.task.test_pairs]
        hypotheses = self.task.hypotheses_from_ids(ids)
        assert hypotheses == references

    def test_describe(self):
        description = self.task.describe()
        assert description["source_vocab"] == len(self.task.source_vocab)
