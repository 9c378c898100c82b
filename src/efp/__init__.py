"""Query-by-example audio retrieval with learned spectrogram fingerprints.

Pipeline: WAV decoding -> log-spectrogram features -> twin-network training
with a contrastive loss -> embedding index -> ranked retrieval and metrics.
"""

__version__ = "0.1.0"
