"""Sparse self-attention RNN-T inference engine with silence state reset."""

from .attention import (
    AttentionMask,
    MaskPolicy,
    fuse_heads,
    global_mask,
    local_mask,
    score_blocks,
    sparse_attend,
)
from .encoder import EncoderConfig, encode
from .frontend import Waveform, log_mel_spectrogram, read_wav
from .metrics import ErrorBreakdown, corpus_cer, edit_alignment
from .model_io import Model, ModelConfig, Vocabulary, load_model, random_model, save_model
from .pipeline import DecodeOptions, decode_file, decode_waveform
from .segmentation import Segment, doi_merge, doi_split, epd_split
from .transducer import SrsParams, decode_with_srs, greedy_decode

__version__ = "0.1.0"
