"""``repro.text`` — tokenization, vocabulary, and pretrained word vectors."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".embeddings": (
            "cosine_similarity",
            "most_similar",
            "train_ppmi_svd",
            "train_skipgram",
        ),
        ".pad": ("pad_batch", "pad_document"),
        ".tokenizer": ("STOP_WORDS", "tokenize", "tokenize_corpus"),
        ".vocab": ("PAD_ID", "PAD_TOKEN", "UNK_ID", "UNK_TOKEN", "Vocabulary"),
    },
)

__all__ = [
    "PAD_ID",
    "PAD_TOKEN",
    "STOP_WORDS",
    "UNK_ID",
    "UNK_TOKEN",
    "Vocabulary",
    "cosine_similarity",
    "most_similar",
    "pad_batch",
    "pad_document",
    "tokenize",
    "tokenize_corpus",
    "train_ppmi_svd",
    "train_skipgram",
]
