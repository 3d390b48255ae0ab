"""Synthetic review language.

The public Yelp/Amazon corpora are unavailable offline, so the simulator
writes its own reviews.  What matters for the reproduction is not
literary quality but the *statistical signals* the models exploit:

* benign text reflects aspect-level sentiment — which aspects a user
  mentions reveals their preferences, and the polarity toward an aspect
  reveals the item's quality on it;
* fake text is generic, hyperbolic, template-heavy and weakly tied to
  the item — the distributional tells content-based detectors (and
  RRRE's BiLSTM) learn from real opinion spam;
* a ``confusion`` knob keeps substantial vocabulary overlap between the
  populations so the task stays non-trivial.

Each domain (restaurants for Yelp presets, music for Amazon presets)
contributes aspect nouns and domain flavour words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Phrase banks
# ---------------------------------------------------------------------------

_POSITIVE_OPINIONS = [
    "really enjoyed the {aspect}",
    "the {aspect} was excellent",
    "great {aspect} and friendly staff",
    "loved the {aspect} here",
    "the {aspect} exceeded my expectations",
    "impressive {aspect} worth the price",
    "such a pleasant surprise with the {aspect}",
    "the {aspect} was fresh and well done",
    "solid {aspect} every single visit",
    "wonderful {aspect} and quick service",
]

_NEGATIVE_OPINIONS = [
    "the {aspect} was disappointing",
    "terrible {aspect} and slow service",
    "the {aspect} felt overpriced",
    "would not recommend the {aspect}",
    "the {aspect} was bland and cold",
    "poor {aspect} ruined the evening",
    "the {aspect} did not live up to the hype",
    "mediocre {aspect} at best",
    "the {aspect} was a letdown",
    "frustrating experience with the {aspect}",
]

_NEUTRAL_FILLERS = [
    "came here with friends on a weekend",
    "stopped by after work",
    "my second time visiting",
    "ordered the usual",
    "it was fairly busy that day",
    "parking was easy to find",
    "the place was clean",
    "staff seemed busy",
    "prices are about average for the area",
    "located close to downtown",
]

# Fake reviews: short, generic, superlative, weak item grounding.  The
# phrasing is built combinatorially (intensifier × adjective × call to
# action) so fakes share vocabulary and style without being verbatim
# duplicates — real spam farms rewrite templates just enough to dodge
# exact-match filters.
_FAKE_INTENSIFIERS = ["absolutely", "simply", "totally", "honestly", "truly", "really"]

_FAKE_PROMOTE_ADJ = ["amazing", "incredible", "perfect", "fantastic", "outstanding"]
_FAKE_PROMOTE_CLAIMS = [
    "best place ever",
    "five stars hands down",
    "you will love it",
    "nothing else compares",
    "best choice in town",
    "everyone should come here",
]
_FAKE_PROMOTE = [
    f"{i} {a} {c}"
    for i in _FAKE_INTENSIFIERS
    for a in _FAKE_PROMOTE_ADJ
    for c in _FAKE_PROMOTE_CLAIMS
]

_FAKE_DEMOTE_ADJ = ["horrible", "awful", "terrible", "disgusting", "worthless"]
_FAKE_DEMOTE_CLAIMS = [
    "worst place ever",
    "avoid at all costs",
    "stay far away",
    "complete waste of money",
    "never coming back",
    "do not trust the hype",
]
_FAKE_DEMOTE = [
    f"{i} {a} {c}"
    for i in _FAKE_INTENSIFIERS
    for a in _FAKE_DEMOTE_ADJ
    for c in _FAKE_DEMOTE_CLAIMS
]


@dataclass(frozen=True)
class Domain:
    """A review domain: aspect nouns + flavour tokens for item names."""

    name: str
    aspects: Sequence[str]
    item_nouns: Sequence[str]

    @property
    def num_aspects(self) -> int:
        return len(self.aspects)


RESTAURANTS = Domain(
    name="restaurants",
    aspects=(
        "food", "pizza", "noodles", "burger", "dessert", "coffee", "menu",
        "service", "atmosphere", "brunch", "cocktails", "portions",
    ),
    item_nouns=("grill", "bistro", "cafe", "diner", "kitchen", "bar", "house"),
)

MUSIC = Domain(
    name="music",
    aspects=(
        "album", "vocals", "guitar", "production", "lyrics", "melody",
        "drums", "mixing", "tracklist", "sound", "arrangement", "chorus",
    ),
    item_nouns=("record", "album", "session", "collection", "anthology"),
)


class ReviewWriter:
    """Generates review text conditioned on aspect sentiment and reliability.

    Parameters
    ----------
    domain:
        The aspect/noun bank to draw from.
    rng:
        Seeded generator; all sampling flows through it.
    confusion:
        How often each population borrows the other's phrasing: at 0 the
        populations are textually separable (detector AUC saturates);
        realistic values (0.2-0.45) leave the overlap real detectors
        face.
    """

    def __init__(
        self, domain: Domain, rng: np.random.Generator, confusion: float = 0.3
    ) -> None:
        if not 0.0 <= confusion <= 1.0:
            raise ValueError(f"confusion must be in [0, 1], got {confusion}")
        self.domain = domain
        self.confusion = confusion
        self._rng = rng

    def benign_review(
        self,
        rating: float,
        aspect_mentions: Sequence[Tuple[int, bool]] = (),
    ) -> str:
        """Write a benign review.

        ``aspect_mentions`` is a list of ``(aspect_index, positive)``
        pairs the review should discuss (how the simulator leaks the
        item's aspect quality and the user's cared aspects into text).
        When empty, aspects are sampled with sentiment tracking the
        overall ``rating``.
        """
        sentences: List[str] = []
        if aspect_mentions:
            for aspect_idx, positive in aspect_mentions:
                aspect = self.domain.aspects[aspect_idx % self.domain.num_aspects]
                bank = _POSITIVE_OPINIONS if positive else _NEGATIVE_OPINIONS
                sentences.append(self._pick(bank).format(aspect=aspect))
        else:
            positive_share = (rating - 1.0) / 4.0
            for _ in range(int(self._rng.integers(2, 5))):
                aspect = self._pick(self.domain.aspects)
                bank = (
                    _POSITIVE_OPINIONS
                    if self._rng.random() < positive_share
                    else _NEGATIVE_OPINIONS
                )
                sentences.append(self._pick(bank).format(aspect=aspect))
        if self._rng.random() < 0.7:
            sentences.insert(
                int(self._rng.integers(0, len(sentences) + 1)),
                self._pick(_NEUTRAL_FILLERS),
            )
        # Enthusiastic (or furious) honest reviewers sometimes sound
        # exactly like spam — hyperbole is not proof of fraud.
        if self._rng.random() < self.confusion * 0.6:
            bank = _FAKE_PROMOTE if rating >= 3.0 else _FAKE_DEMOTE
            sentences.append(self._pick(bank))
        return ". ".join(sentences) + "."

    def fake_review(self, promote: bool) -> str:
        """Write a fake review (promoting or demoting)."""
        # Competent spammers imitate honest style entirely.
        if self._rng.random() < self.confusion:
            return self.benign_review(5.0 if promote else 1.0)
        bank = _FAKE_PROMOTE if promote else _FAKE_DEMOTE
        picks = [self._pick(bank) for _ in range(int(self._rng.integers(1, 3)))]
        # Fakes occasionally mention one aspect for camouflage.
        if self._rng.random() < 0.3:
            aspect = self._pick(self.domain.aspects)
            filler = _POSITIVE_OPINIONS if promote else _NEGATIVE_OPINIONS
            picks.append(self._pick(filler).format(aspect=aspect))
        return ". ".join(picks) + "."

    def _pick(self, bank: Sequence[str]) -> str:
        """One uniform draw from ``bank``.

        Same bits and result as ``rng.choice(bank)``, which draws
        ``integers(0, len(bank))`` after converting ``bank`` to an array
        (~6x the cost of the draw itself).
        """
        return bank[self._rng.integers(0, len(bank))]

    def item_name(self, index: int) -> str:
        """A human-readable item label, unique per index."""
        noun = self.domain.item_nouns[index % len(self.domain.item_nouns)]
        return f"{noun.title()} #{index}"


def domain_for(name: str) -> Domain:
    """Look up a domain by name (``restaurants`` or ``music``)."""
    domains = {"restaurants": RESTAURANTS, "music": MUSIC}
    if name not in domains:
        raise KeyError(f"unknown domain {name!r}; options: {sorted(domains)}")
    return domains[name]
