"""repro — reproduction of *Serverless Cold Starts and Where to Find Them*
(EuroSys '25).

The package provides four layers:

* :mod:`repro.workload` + :mod:`repro.trace` — a calibrated synthetic
  replacement for the proprietary production dataset (Table 1 schema);
* :mod:`repro.cluster` + :mod:`repro.sim` — the serverless platform
  substrate (keep-alive lifecycle reconstruction, cold-start latency
  models, deterministic RNG streams);
* :mod:`repro.core` + :mod:`repro.analysis` — the paper's measurement
  methodology, one entry point per figure via :class:`repro.core.TraceStudy`;
* :mod:`repro.mitigation` — the §5 mitigation strategies, evaluated against
  production-default baselines.

Quickstart::

    from repro import TraceStudy
    study = TraceStudy.generate(regions=("R1", "R2"), days=7, scale=0.3, seed=7)
    print(study.fig01_region_sizes())
    print(study.fig10_lognormal_fit().mean)
"""

from repro.core import TraceStudy
from repro.core.fits import LogNormalFit, WeibullFit, PAPER_COLD_START_FIT, PAPER_IAT_FIT
from repro.trace import FunctionTable, PodTable, RequestTable, TraceBundle
from repro.workload import REGION_PROFILES, generate_multi_region, generate_region

__version__ = "1.0.0"

__all__ = [
    "TraceStudy",
    "TraceBundle",
    "RequestTable",
    "PodTable",
    "FunctionTable",
    "LogNormalFit",
    "WeibullFit",
    "PAPER_COLD_START_FIT",
    "PAPER_IAT_FIT",
    "REGION_PROFILES",
    "generate_region",
    "generate_multi_region",
    "__version__",
]
