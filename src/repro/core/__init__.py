"""``repro.core`` — the RRRE model, trainer, and recommendation pipeline."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("RRREConfig", "fast_config"),
        ".inspect": (
            "AttendedReview",
            "attention_fake_discount",
            "item_profile_attention",
            "user_profile_attention",
        ),
        ".encoder": (
            "BiLSTMReviewEncoder",
            "CNNReviewEncoder",
            "MeanReviewEncoder",
            "make_encoder",
        ),
        ".losses": ("JointLossParts", "joint_loss"),
        ".model": ("BENIGN_CLASS", "RRRE", "RRREOutput"),
        ".nets": ("EntityNet",),
        ".recommend": (
            "Explanation",
            "Recommendation",
            "explain_item",
            "rank_by_rating_then_reliability",
            "recommend_items",
        ),
        ".semisupervised": ("SelfTrainingState", "SemiSupervisedRRRETrainer"),
        ".trainer": ("EpochRecord", "RRRETrainer"),
    },
)

__all__ = [
    "AttendedReview",
    "BENIGN_CLASS",
    "BiLSTMReviewEncoder",
    "CNNReviewEncoder",
    "EntityNet",
    "EpochRecord",
    "Explanation",
    "JointLossParts",
    "MeanReviewEncoder",
    "RRRE",
    "RRREConfig",
    "RRREOutput",
    "RRRETrainer",
    "Recommendation",
    "SelfTrainingState",
    "SemiSupervisedRRRETrainer",
    "attention_fake_discount",
    "explain_item",
    "item_profile_attention",
    "fast_config",
    "joint_loss",
    "make_encoder",
    "rank_by_rating_then_reliability",
    "recommend_items",
    "user_profile_attention",
]
