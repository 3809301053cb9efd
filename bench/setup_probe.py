"""Set-up probe: import the program, load one workload's config, say "ready".

    python3 bench/setup_probe.py WORKLOAD

``run.py`` starts this in fresh processes and times each from process start
to the "ready" line, which is the set-up a user of that workload pays before
the first operation.
"""

import sys

from workloads import WORKLOADS

wl = WORKLOADS[sys.argv[1]]()
wl.setup()
wl.close()
print("ready", flush=True)
