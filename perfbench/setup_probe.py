"""One cold set-up of a workload, run in a fresh interpreter.

``run.py`` times this script end to end several times and reports the
median as ``setup_s``: interpreter start, importing the layers the
workload drives, and building what exists before the first cell runs
(the figure's workload objects, or an empty service root plus the
validated campaign specs).

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys

from common import fresh_dir, prepare_environment


def main(workload, seed):
    prepare_environment()
    if workload == "campaign-stream":
        from repro.service import CampaignService
        from stream import make_specs
        root = fresh_dir("service", f"probe-{os.getpid()}")
        CampaignService(root=root, jobs=2, resilience=True)
        make_specs(seed)
        return
    from repro.eval import experiments  # noqa: F401 - part of set-up
    from repro.workloads import figure7_names, get, repair_suite_names
    names = (repair_suite_names() if workload == "fig9-repair"
             else figure7_names())
    for name in names:
        get(name)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
