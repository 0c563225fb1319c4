import numpy as np
import pytest
from hypothesis import settings

from sparse_rnnt.model_io import ModelConfig, Vocabulary, random_model
from sparse_rnnt.encoder import EncoderConfig

# property and fuzz tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("deterministic")


def tiny_config(num_layers=2, model_dim=8, num_heads=2, vocab_size=5,
                feat_dim=6, conv_kernel=3, pred_dim=4):
    vocab = Vocabulary(["<b>"] + [chr(ord("a") + i) for i in range(vocab_size - 1)])
    enc = EncoderConfig(
        num_layers=num_layers,
        model_dim=model_dim,
        num_heads=num_heads,
        head_dim=model_dim // num_heads,
        ff_dim=2 * model_dim,
        conv_kernel=conv_kernel,
        subsample_channels=4,
    )
    return ModelConfig(feat_dim=feat_dim, encoder=enc, embed_dim=pred_dim,
                       pred_dim=pred_dim, joint_dim=pred_dim, vocab=vocab)


@pytest.fixture
def tiny_model():
    return random_model(tiny_config(), seed=12345)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# verdict lines recorded by the acceptance suite, echoed after the run
acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)
