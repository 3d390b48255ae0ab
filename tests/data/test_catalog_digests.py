"""Golden digests of simulated catalogs.

A catalog is a function of ``(preset, seed, scale, PlatformConfig)``,
and the order of the simulator's random draws is part of that
contract: a reordered or substituted draw changes every review after
it.  Two runs of the same code cannot catch that, so these SHA-256
digests were computed once from the reference simulator and pin every
review, every name and the ``PlatformTruth`` latents.

To regenerate after a deliberate change to the simulator, run this file
as a script (``PYTHONPATH=src python tests/data/test_catalog_digests.py``)
and paste its output over ``DIGESTS``; say in the change why the
catalogs moved.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.data import generate_platform, preset_config

#: (preset, seed, scale) cases; yelpzip 0.3 seed 0 is the train-yelp
#: benchmark catalog and musics 2.0 the serve-http one.
PRESET_CASES = [
    (name, seed, scale)
    for name in ("yelpchi", "yelpnyc", "yelpzip", "musics", "cds")
    for seed in (0, 3)
    for scale in (0.15, 0.5)
] + [("yelpzip", 0, 0.3), ("musics", 5, 2.0)]

#: Config variants that switch on draws the presets skip or rarely take.
VARIANT_CASES = {
    "yelpchi-random-polarity": ("yelpchi", 2, 0.3, {"strategic_polarity": False}),
    "musics-fake-0.35": ("musics", 2, 0.3, {"fake_fraction": 0.35}),
    "yelpzip-camouflage-0.9": ("yelpzip", 2, 0.3, {"camouflage_rate": 0.9}),
}


def catalog_digest(config) -> str:
    """SHA-256 over reviews, names and truth latents of one catalog."""
    dataset, truth = generate_platform(config, return_truth=True)
    h = hashlib.sha256()
    for r in dataset.reviews:
        fields = (r.user_id, r.item_id, r.rating, r.label, r.text, r.timestamp)
        h.update(repr(fields).encode())
    h.update(repr(dataset.user_names).encode())
    h.update(repr(dataset.item_names).encode())
    for array in (truth.item_quality, truth.item_aspects, truth.user_bias, truth.fraud_user_flags):
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr(truth.campaign_targets).encode())
    return h.hexdigest()


def _variant(key):
    name, seed, scale, changes = VARIANT_CASES[key]
    return dataclasses.replace(preset_config(name, seed=seed, scale=scale), **changes)


DIGESTS = {
    "yelpchi-0-0.15": "53c1052034a7c079064574913ec0fae0ad31f8cd8afeea241239a20088236ac3",
    "yelpchi-0-0.5": "2fc8c5b65804ffd85dc6cfa0c55b71290b13c2b048a9cad92bf26af26e5a2f89",
    "yelpchi-3-0.15": "6f488c707b4ccbe60acb1a32777656ac6dcb66f81510c8968cd52dba583b8f1e",
    "yelpchi-3-0.5": "42acbb411709b3af88baa58a27a98529eee5898f3ec141b982c31b5c80fa5605",
    "yelpnyc-0-0.15": "94a07996003f3a763b004cd43e2e932ce1a10ffea06b11bdbd706842b68d6df7",
    "yelpnyc-0-0.5": "3ae4bc9d4ba0ef692226734dac77b7df39778ca1730ed0fe23c552041bb5cd06",
    "yelpnyc-3-0.15": "d0a8ab5438242d02130de3d6e574a4e4fef94bc466e77d8300f3ab07d0a72e0b",
    "yelpnyc-3-0.5": "d2f77b1a498a9a3dee6054d2a08335708f0cb95bebd0708db9ffbc24dcaba1b4",
    "yelpzip-0-0.15": "f362eb2c138b522da18117ddee6fbd4c1e241df16ff1e77d1310bb92d6c1bfdf",
    "yelpzip-0-0.5": "570836f97c97516d35c253f9aac1e57880a0b1f93b9a1cfb1080a0769e7973bd",
    "yelpzip-3-0.15": "b66cf7af333a24ddd03d44ae63ae7fcfe6be3387ed3a81b08990ec1e47fcc91c",
    "yelpzip-3-0.5": "e14038752023ba13fae5d73212d4b5acf8db0f2119eb64f57c4bed2c2838d5fc",
    "musics-0-0.15": "467af227dcce436cc0c854fe1eb77ea61e79c202a945f53b7eb3d8b3b262402b",
    "musics-0-0.5": "baa2d0bfe880194e41a135c2b995665f0b0234803f09bb0865677d9f867738b5",
    "musics-3-0.15": "e5ebec47cafc34ff64c109498bf5181796b9ee6abe117bee4d4f721ad5b09979",
    "musics-3-0.5": "77d5c8179eb9b9201b81ffa2a1833eacc524868c37068899686bac3a5fe90e41",
    "cds-0-0.15": "66014d08d7c887be82791d516f900dba730dfb3673fe1d70152818a7a7c7e5f3",
    "cds-0-0.5": "9a43c793654f67d8ec54ff1a6c1b163ed0a9ba070b472ab6d639c9584d6e98ce",
    "cds-3-0.15": "977e470442540e8da15b72b944d38eee1c5b1745aec74e4c4d95cc2f8bf2f821",
    "cds-3-0.5": "4ca2c9e104df8a5c7171584d21cea416f3226be354e9cbc0f12d58fab5ee297a",
    "yelpzip-0-0.3": "98d5aad5a6d1c451918a30b08e7a5055b9908d99c7eb7f2d450d1b83083e61e3",
    "musics-5-2.0": "1fe0c66b04889ebddab8b35fa4d731a9c1557d4040152ec9501316e2f338d80e",
    "musics-fake-0.35": "d2aaec11bc2d3dfa14a10f1a2b9d47768d9226d15cd716cf12e598f9b05becdb",
    "yelpchi-random-polarity": "d657ca1ddd234402f5d72e78ae94aac73fff1fac1c123d282f55c4af65e2ea52",
    "yelpzip-camouflage-0.9": "d2c25eea1a49a3615bf7d118135e4eb296492a943c6f535662f61e2a254d8934",
}


@pytest.mark.parametrize("name,seed,scale", PRESET_CASES)
def test_preset_catalog_digest(name, seed, scale):
    config = preset_config(name, seed=seed, scale=scale)
    assert catalog_digest(config) == DIGESTS[f"{name}-{seed}-{scale}"]


@pytest.mark.parametrize("key", sorted(VARIANT_CASES))
def test_variant_catalog_digest(key):
    assert catalog_digest(_variant(key)) == DIGESTS[key]


if __name__ == "__main__":
    for name, seed, scale in PRESET_CASES:
        digest = catalog_digest(preset_config(name, seed=seed, scale=scale))
        print(f'    "{name}-{seed}-{scale}": "{digest}",')
    for key in sorted(VARIANT_CASES):
        print(f'    "{key}": "{catalog_digest(_variant(key))}",')
