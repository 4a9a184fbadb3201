"""The synthetic walk every workload replays: a fixed stretch, then a seeded one.

A person walks across the site and back.  The walk *there* uses the
fixed noise seed :data:`THERE_SEED`, so its fixes — and the accuracy
metrics taken from them — change only when the code does: across noise
seeds the error percentiles of one walk spread by about 30 %, far too
much for a regression bound.  The walk *back* draws its measurement
noise from the run's ``--seed``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.faults import fix_window_s
from repro.geometry.point import Point
from repro.sim.scene import Scene
from repro.stream.events import TagRead
from repro.stream.synthetic import (
    SyntheticStreamConfig,
    synthetic_reads,
    target_positions,
)

#: Noise seed of the walk there.
THERE_SEED = 0


def there_and_back(
    scene: Scene, there: int, back: int, seed: int, stream: int = 0
) -> Tuple[List[TagRead], List[Point]]:
    """Reads of ``there`` + ``back`` windows, and the truth of the ``there`` ones.

    ``stream`` separates the noise of several deployments walked with
    the same seed.  Window numbering is continuous: the walk back starts
    at window ``there``.
    """
    outward = SyntheticStreamConfig(fixes=there)
    start, end = target_positions(scene, SyntheticStreamConfig(fixes=2))
    inward = SyntheticStreamConfig(fixes=back, start=end, end=start)
    reads = list(
        synthetic_reads(scene, outward, rng=np.random.default_rng([THERE_SEED, stream]))
    )
    offset = there * fix_window_s(scene)
    reads.extend(
        TagRead(r.reader_name, r.epc, r.time_s + offset, r.iq)
        for r in synthetic_reads(scene, inward, rng=np.random.default_rng([seed, stream]))
    )
    return reads, target_positions(scene, outward)
