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
    "yelpchi-0-0.15": "638a66ca78bba3c1e2753dfd6dd021ed1210226b130dc0405610c93b7dde1d3c",
    "yelpchi-0-0.5": "bb20c31037694c0f46064be79325ed4db083891dc63f141f137f96e41ae8a184",
    "yelpchi-3-0.15": "778a45484ed2414b7b14f3f826802c8d11b66247f6678d8b5eee798b758ee125",
    "yelpchi-3-0.5": "c4f4e895c5db6258725ee5d5a938b074f11f2a157455411a900d256f149bf4f6",
    "yelpnyc-0-0.15": "95a410390fa0adaea8050cf250d88aa48dfecd87bc621ec8fe2ae961473d399b",
    "yelpnyc-0-0.5": "fc01cfc8a5640fb052b5d417ce2fef01046e0663227464a8d6b9afbf6d1a0c56",
    "yelpnyc-3-0.15": "c680194d9cfa1d67e682215cf7ed51ae90e4d2cb8cc93d2dace9e494ee3d1c4e",
    "yelpnyc-3-0.5": "fc73ac8bc5151bcf844393af2e7051e9078d6b743e0dd99ffc040f14098de8cf",
    "yelpzip-0-0.15": "741bc68cfc065dcaa4df814e6fadd9bc6c280c450d53991c1833cdc64112d766",
    "yelpzip-0-0.5": "27f26efa117eeaeca0b89f92ce996a0e4ac787f290524582b725dae5c949649f",
    "yelpzip-3-0.15": "5ef354aff968c3b87af3ab706b37a42cd117936fcb0a371e37bc98059a9a5d1f",
    "yelpzip-3-0.5": "794eab000c7304613576c5939dcb83fd6072f9cce6e30f4c27f6c94a19b7793e",
    "musics-0-0.15": "8f726089341a40b5f058904b46c18fbbf103d13bc89bfaaef2d5bbf28b0a50c9",
    "musics-0-0.5": "907606ecfb3d54a4431339407706c6b02dde63f11f559aff8805373763f05436",
    "musics-3-0.15": "b30527d61c0f4d7481d347860c36b2b2a99d21a654fd0e2c1331c8b9e0c0438b",
    "musics-3-0.5": "6b9fee6de493a07755ef3c211591d32b2ed1965e0e2d83e339000e3119256080",
    "cds-0-0.15": "719652afa24f8867354ea7092f7f3c40eb977d5e534437e970bb61d144b0b9cd",
    "cds-0-0.5": "45767f98dad262b7a60036f6a4492ea57981d5319f0306b0adaab559cebee4ab",
    "cds-3-0.15": "36ff73319d3a1c4215430875a21182ec8d396b950dab70f1be31d2aa89423474",
    "cds-3-0.5": "f3a31880bbb4f70aa94d248a0f991c7e6e3387a507650ff7f82bee6b3a8c6273",
    "yelpzip-0-0.3": "d97110423f1e86cc6c159737c59a8c7c1860b7c4793b4d07eb9cd5eed1762221",
    "musics-5-2.0": "a61b68371fda97a433393ea6e1327a488425998633983241e40227bd678ff68c",
    "musics-fake-0.35": "5945bb22fe317d6c979078a0a80fd9fba256a972506c888a481edd900e320b85",
    "yelpchi-random-polarity": "a29a8b8f339c3483dc1f3e29c18ca3b49e82f438cb138c2862f8530c822ff67c",
    "yelpzip-camouflage-0.9": "2de3cb9c491d0887d4cf9175a9a1384d3e054c260bad45f5ea78091a9acad25f",
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
