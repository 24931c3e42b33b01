"""The paper's custom components (Sections 4.1–4.3).

* :mod:`repro.pfm.components.template` — the worklist-sweep run-ahead
  template (Section 7) and its astar instance, the custom astar branch
  predictor (``astar-custom-bp``): three decoupled engines (T0–T2) over
  index_queue / index1_queue / index1_CAM with inferred-store overrides.
* :mod:`repro.pfm.components.bfs_engine` — bfs's combined
  prefetcher/predictor: four decoupled engines (T0–T3) over frontier /
  begin-address / trip-count / neighbor queues.
* :mod:`repro.pfm.components.prefetchers` — the five custom prefetch
  FSMs (libquantum, bwaves, lbm, milc, leslie) with the sampling-based
  adaptive prefetch-distance feedback mechanism.
"""

from repro.pfm.components.bfs_engine import BfsEngine
from repro.pfm.components.prefetchers import (
    AdaptiveDistanceController,
    BwavesPrefetcher,
    LbmPrefetcher,
    LesliePrefetcher,
    LibquantumPrefetcher,
    MilcPrefetcher,
    StridePrefetchEngine,
)
from repro.pfm.components.template import (
    TemplatedRunaheadPredictor,
    TemplateSpec,
    astar_template_spec,
)

__all__ = [
    "BfsEngine",
    "AdaptiveDistanceController",
    "StridePrefetchEngine",
    "LibquantumPrefetcher",
    "BwavesPrefetcher",
    "LbmPrefetcher",
    "MilcPrefetcher",
    "LesliePrefetcher",
    "TemplatedRunaheadPredictor",
    "TemplateSpec",
    "astar_template_spec",
]
