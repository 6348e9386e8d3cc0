"""One fresh-interpreter set-up of a batch workload; prints ``ready``.

``setup_s`` is the time from starting this process until that line:
``import repro``, build the workload's ``ScenarioConfig``, build its
policies through the registry, and open a session stepped once with no
requests, which runs the first cache decision (for the MDP policy, its
solve)::

    python3 perfbench/setup_probe.py fading-solve 3
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

from repro import open_session  # noqa: E402
from repro.policies import PolicySpec  # noqa: E402


def main(workload: str, seed: int) -> None:
    scenario = wl.scenario_for(workload, seed)
    for policies in wl.policies_for(workload):
        names = policies if isinstance(policies, tuple) else (policies,)
        built = tuple(PolicySpec.parse(name).build(scenario) for name in names)
        session = open_session(scenario, built if len(built) > 1 else built[0])
        session.step([])
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
