"""Set-up probe: one fresh interpreter's work before the first period.

Run by ``run.py`` as ``python3 setup_probe.py WORKLOAD SEED SECONDS``
with ``PYTHONPATH`` pointing at the checkout's ``src``. It imports
``repro``, generates the run's job list from the seed, and makes the
construction calls (``Topology.*``, ``MultiHopRunner(spec)``,
``build_network``) of one cycle of the job mix, then prints how many
jobs it built. ``run.py`` times the whole process.
"""

import sys

import workloads


def main() -> None:
    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    jobs = workloads.make_jobs(workload, seed, seconds)
    cycle = jobs[: len(jobs) // workloads.cycles_for(workload, seconds)]
    built = [job.construct() for job in cycle]
    print(len(built))


if __name__ == "__main__":
    main()
