"""``python -m repro serve`` with the metrics registry switched on.

The registry is off by default; the benchmark turns it on, as a deployment
that scrapes ``GET /metrics`` would, so it can check the request counter.
Arguments are those of ``python -m repro serve``.
"""

import sys

from repro.__main__ import main
from repro.obs import METRICS

if __name__ == "__main__":
    METRICS.enable()
    raise SystemExit(main(["serve", *sys.argv[1:]]))
