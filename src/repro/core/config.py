"""Configuration for the RRRE model and trainer."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RRREConfig:
    """Hyper-parameters of RRRE (paper Sec III & IV-E).

    Attributes
    ----------
    review_dim:
        k — the review embedding size (Fig. 2 sweeps {8,16,32,64,128};
        64 is the paper's pick).  Must be even: the BiLSTM contributes
        k/2 per direction.
    word_dim:
        Width of the word vectors feeding the BiLSTM.
    id_dim:
        Width of the auxiliary user/item ID embeddings (e^u, e^i).
    attention_dim:
        Hidden width of the fraud-attention (Eq. 5).
    fm_factors:
        Rank of the factorization-machine pairwise term (Eq. 12).
    s_u / s_i:
        Number of review slots in UserNet / ItemNet (Fig. 3/4; the paper
        settles on s_u=13, s_i=12).
    max_len:
        Token cap per review for the BiLSTM.
    encoder:
        Review text encoder: ``"bilstm"`` (paper), ``"cnn"`` or
        ``"mean"`` (ablations).
    pooling:
        Review-set pooling in UserNet/ItemNet: ``"attention"`` (the
        paper's fraud-attention) or ``"mean"`` (ablation).
    lambda_weight:
        λ in Eq. 15 — weight of the reliability loss vs the rating loss.
    biased_loss:
        True → Eq. 14 (reliability-weighted rating loss; RRRE).
        False → Eq. 13 (plain MSE; the RRRE⁻ ablation).
    pretrain_words:
        Initialize word vectors with skip-gram over the training corpus.
    weight_decay:
        γ — L2 regularization, applied through the optimizer.
    """

    review_dim: int = 64
    word_dim: int = 24
    id_dim: int = 16
    attention_dim: int = 16
    fm_factors: int = 8
    s_u: int = 13
    s_i: int = 12
    max_len: int = 20
    encoder: str = "bilstm"
    pooling: str = "attention"
    dropout: float = 0.1
    lambda_weight: float = 0.4
    biased_loss: bool = True
    pretrain_words: bool = True

    # Optimization
    lr: float = 0.004
    weight_decay: float = 1e-5
    batch_size: int = 128
    epochs: int = 8
    grad_clip: float = 5.0
    seed: int = 0

    # Vocabulary
    min_word_count: int = 1
    max_vocab: int = 4000

    def __post_init__(self) -> None:
        if self.review_dim % 2 != 0:
            raise ValueError(f"review_dim must be even, got {self.review_dim}")
        if self.encoder not in ("bilstm", "cnn", "mean"):
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.pooling not in ("attention", "mean"):
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError(f"lambda_weight must be in [0, 1], got {self.lambda_weight}")
        if self.s_u < 1 or self.s_i < 1:
            raise ValueError("s_u and s_i must be >= 1")
        if self.max_len < 2:
            raise ValueError("max_len must be >= 2")


def fast_config(**overrides) -> RRREConfig:
    """A scaled-down configuration for CPU benchmarks and tests.

    Keeps the architecture intact but shrinks widths, slot counts, and
    epochs so a full train/eval cycle takes seconds.
    """
    defaults = dict(
        review_dim=32,
        word_dim=16,
        id_dim=8,
        attention_dim=8,
        fm_factors=4,
        s_u=5,
        s_i=8,
        max_len=14,
        epochs=5,
        batch_size=128,
        pretrain_words=False,
        max_vocab=2000,
    )
    defaults.update(overrides)
    return RRREConfig(**defaults)


def bench_rrre_config(**overrides) -> RRREConfig:
    """The tuned mid-size RRRE configuration used by the benchmarks.

    Chosen so one fit takes ~10-20 s on a CPU core at ``scale=0.5``
    while keeping the paper's architecture (BiLSTM encoder, fraud
    attention, FM head, joint loss).
    """
    defaults = dict(
        review_dim=48,
        word_dim=20,
        id_dim=12,
        attention_dim=12,
        fm_factors=6,
        s_u=7,
        s_i=10,
        max_len=18,
        epochs=14,
        batch_size=128,
        lr=0.008,
        lambda_weight=0.4,
        dropout=0.1,
        weight_decay=3e-3,
        pretrain_words=True,
        max_vocab=3000,
    )
    defaults.update(overrides)
    return RRREConfig(**defaults)
