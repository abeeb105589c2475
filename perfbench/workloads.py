"""Workload definitions: seeded job lists and the per-job output checks.

A workload is a closed-loop stream of simulation jobs run one at a time
in one process. :func:`make_jobs` turns ``(workload, seed, seconds)``
into a fixed job list, so the program only ever receives generated
inputs and a given seed always yields the same jobs.

Every job goes through the lane's public entry points directly (no sweep
orchestrator, no worker pool):

* ``paper_singlehop`` - ``repro.fastlane.run_tsf_vectorized`` /
  ``run_sstsp_vectorized`` on ``paper_spec`` with paper churn;
* ``multihop_grid`` - ``Topology.grid`` / ``Topology.chain``,
  ``MultiHopRunner(spec)`` and ``MultiHopRunner.run``;
* ``secure_reference`` - ``build_network("sstsp", paper_spec(...),
  crypto="full")`` and ``NetworkRunner.run``.

A job is split into ``construct`` (the construction calls the public API
separates from ``run()``) and ``run``; the job's host time covers both.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.fastlane as fastlane
import repro.multihop as multihop
import repro.network.ibss as ibss
from repro.experiments.scenarios import PAPER_ATTACK, paper_spec
from repro.network.ibss import AttackerSpec
from repro.sim.units import S

WORKLOADS = ("paper_singlehop", "multihop_grid", "secure_reference")

#: Host seconds one cycle of each workload's job mix takes on the
#: reference machine (2 vCPU x86-64, Python 3.11). ``--seconds`` buys
#: ``max(1, seconds // cycle)`` cycles, each with fresh job seeds, so the
#: job list depends on the arguments only, never on how fast it runs.
CYCLE_SECONDS = {
    "paper_singlehop": 15.0,
    "multihop_grid": 26.0,
    "secure_reference": 6.0,
}

#: Paper section 5 horizon cut just past the attack window: it crosses the
#: 300 s reference departure and the whole 400-600 s attack.
PAPER_HORIZON_S = 620.0
#: Multi-hop horizon (the ROADMAP's depth measurements use 60 s).
MULTIHOP_HORIZON_S = 60.0
#: Reference-lane horizon, with the section 5 insider scaled into it.
SECURE_HORIZON_S = 60.0
SECURE_ATTACK = AttackerSpec(start_s=20.0, end_s=40.0)
#: The paper's beacon period (section 5: BP = 0.1 s), shared by every job.
BEACON_PERIOD_US = 0.1 * S

#: Lemma 1: 2 * epsilon < 20 us for single-hop SSTSP at steady state
#: (tests/test_fastlane.py and tests/test_integration_sync.py assert
#: tighter bounds on smaller scenarios). Fig. 4: the insider cannot lift
#: the error past it either, so the bound also holds for the median over
#: the attack window. (The window *maximum* is not bounded: paper churn
#: puts returning stations' coarse-phase transients inside the window.)
LEMMA1_BOUND_US = 20.0
#: Fig. 3: the channel attacker desynchronizes TSF by this factor at least
#: (tests/test_fastlane.py, test_attack_desynchronizes).
TSF_ATTACK_FACTOR = 5.0


@dataclass(frozen=True)
class Job:
    """One simulation job: generated inputs plus how to run them."""

    job_id: int
    workload: str
    #: "tsf" / "sstsp" (fast lane), a multi-hop protocol, or "secure".
    protocol: str
    #: Human-readable configuration, e.g. "tsf n=300 attack".
    label: str
    #: Stations simulated (attacker included) and beacon periods.
    stations: int
    periods: int
    seed: int
    n: int
    attack: bool = False
    #: Multi-hop topology as ("grid", rows, cols) or ("chain", n).
    topology: Tuple[Any, ...] = ()

    @property
    def node_periods(self) -> int:
        return self.stations * self.periods

    # -- construction and run ------------------------------------------

    def construct(self) -> Any:
        """The construction calls the public API separates from run()."""
        if self.workload == "paper_singlehop":
            return self.spec()
        if self.workload == "multihop_grid":
            shape = self.topology
            if shape[0] == "grid":
                topology = multihop.Topology.grid(shape[1], shape[2])
            else:
                topology = multihop.Topology.chain(shape[1])
            spec = multihop.MultiHopSpec(
                topology=topology,
                seed=self.seed,
                duration_s=MULTIHOP_HORIZON_S,
                protocol=self.protocol,
            )
            return multihop.MultiHopRunner(spec)
        return ibss.build_network("sstsp", self.spec(), crypto="full")

    def run(self, built: Any) -> Any:
        if self.workload == "paper_singlehop":
            if self.protocol == "tsf":
                return fastlane.run_tsf_vectorized(built)
            return fastlane.run_sstsp_vectorized(built)
        return built.run()

    def spec(self):
        """The single-hop scenario spec (paper_singlehop, secure_reference)."""
        if self.workload == "paper_singlehop":
            return paper_spec(
                self.n,
                seed=self.seed,
                duration_s=PAPER_HORIZON_S,
                attacker=PAPER_ATTACK if self.attack else None,
            )
        return paper_spec(
            self.n,
            seed=self.seed,
            duration_s=SECURE_HORIZON_S,
            attacker=SECURE_ATTACK if self.attack else None,
        )

    @property
    def attack_window_s(self) -> Tuple[float, float]:
        attacker = PAPER_ATTACK if self.workload == "paper_singlehop" else SECURE_ATTACK
        return attacker.start_s, attacker.end_s


def _paper_cycle(cycle: int) -> List[Tuple[str, int, bool]]:
    # Half the jobs carry the section 5 attacker; alternate cycles swap
    # which half, so two cycles cover all twelve fig1-fig4 combinations.
    out = []
    for index, n in enumerate((100, 300, 500)):
        for offset, protocol in enumerate(("tsf", "sstsp")):
            out.append((protocol, n, (index + offset + cycle) % 2 == 1))
    return out


#: (topology, jobs per protocol and cycle). A chain(24) job costs under
#: 0.6 s against 1.5-8 s for a grid job, so each cycle runs it with four
#: seeds: more jobs per run at little cost, which steadies the per-run
#: medians (one chain job per protocol left ``sync_error_us`` spreading
#: by a fifth of its median across ten seeds).
_MULTIHOP_TOPOLOGIES = ((("grid", 10, 10), 1), (("grid", 16, 16), 1), (("chain", 24), 4))


def _topology_label(shape: Tuple[Any, ...]) -> str:
    if shape[0] == "grid":
        return f"grid{shape[1]}x{shape[2]}"
    return f"chain{shape[1]}"


def _periods(horizon_s: float) -> int:
    return int(round(horizon_s * S / BEACON_PERIOD_US))


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // CYCLE_SECONDS[workload]))


def make_jobs(workload: str, seed: int, seconds: float) -> List[Job]:
    """The run's fixed job list: whole cycles of the workload's mix."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    jobs: List[Job] = []

    def job_seed() -> int:
        return int(rng.integers(1, 2**31 - 1))

    for cycle in range(cycles_for(workload, seconds)):
        if workload == "paper_singlehop":
            periods = _periods(PAPER_HORIZON_S)
            for protocol, n, attack in _paper_cycle(cycle):
                label = f"{protocol} n={n}{' attack' if attack else ''}"
                jobs.append(Job(len(jobs), workload, protocol, label, n + attack,
                                periods, job_seed(), n, attack))
        elif workload == "multihop_grid":
            periods = _periods(MULTIHOP_HORIZON_S)
            for protocol in ("sstsp", "beaconless", "coop"):
                for shape, replicas in _MULTIHOP_TOPOLOGIES:
                    n = shape[1] * shape[2] if shape[0] == "grid" else shape[1]
                    label = f"{protocol} {_topology_label(shape)}"
                    for _ in range(replicas):
                        jobs.append(Job(len(jobs), workload, protocol, label, n, periods,
                                        job_seed(), n, topology=shape))
        else:
            periods = _periods(SECURE_HORIZON_S)
            for n in (20, 30, 50):
                for attack in (False, True):
                    label = f"secure n={n}{' attack' if attack else ''}"
                    jobs.append(Job(len(jobs), workload, "secure", label, n + attack,
                                    periods, job_seed(), n, attack))
    return jobs


#: Labels of the jobs a traced run replays: together they reach every
#: layer the workload exercises, at about a quarter of the untraced run's
#: work, because a traced run executes each job three times (untraced,
#: traced, traced again).
TRACED_LABELS = {
    "paper_singlehop": ("tsf n=300", "tsf n=100 attack", "sstsp n=300 attack", "sstsp n=500"),
    "multihop_grid": ("sstsp grid16x16", "beaconless chain24", "coop grid10x10"),
    "secure_reference": (
        "secure n=20", "secure n=20 attack", "secure n=30", "secure n=30 attack",
        "secure n=50", "secure n=50 attack",
    ),
}


def traced_jobs(workload: str, seed: int) -> List[Job]:
    """The traced subset: the first job of each traced label, taken from
    the run's own job list (two cycles, so both attack halves exist)."""
    wanted = TRACED_LABELS[workload]
    first: Dict[str, Job] = {}
    for job in make_jobs(workload, seed, 2 * CYCLE_SECONDS[workload]):
        if job.label in wanted:
            first.setdefault(job.label, job)
    return [first[label] for label in wanted]


# ---------------------------------------------------------------------------
# Output checks and result digests
# ---------------------------------------------------------------------------


def job_outputs(job: Job, built: Any, result: Any) -> Tuple[Any, Dict[str, Any]]:
    """The job's trace and its scalar outputs (for the digest).

    ``scalars["joined"]`` counts the stations that joined the network.
    Single-hop lanes start every station synchronized, so it is the peak
    synchronized count. Multi-hop stations that drift far from the root
    re-acquire and drop out for a while (the depth defect), so there a
    station has joined if it holds a hop distance at the end of the run
    or adjusted its clock at least once.
    """
    if job.workload == "paper_singlehop":
        scalars = {
            "joined": int(np.max(result.trace.present_counts)),
            "successful_beacons": result.successful_beacons,
            "events": len(result.events),
        }
        if job.protocol == "tsf":
            scalars["collisions"] = result.collisions
        else:
            scalars["reference_changes"] = result.reference_changes
            scalars["recoveries"] = result.recoveries
    elif job.workload == "multihop_grid":
        scalars = {
            "per_hop_error_us": sorted(result.per_hop_error_us.items()),
            "hop_of": sorted(result.hop_of.items()),
            "root": result.root,
            "root_changes": result.root_changes,
            "beacons_sent": result.beacons_sent,
            "collisions_at_receivers": result.collisions_at_receivers,
            "joined": sum(
                1
                for node in built.nodes
                if node.protocol.hop is not None or node.protocol.adjustments > 0
            ),
        }
    else:
        scalars = {
            "joined": int(np.max(result.trace.present_counts)),
            "successful_beacons": result.successful_beacons,
            "contention_windows": result.contention_windows,
            "events": len(result.events),
        }
    return result.trace, scalars


def digest(trace: Any, scalars: Dict[str, Any]) -> str:
    """SHA-256 over every trace array and the scalar outputs."""
    h = hashlib.sha256()
    for array in (
        trace.times_us,
        trace.max_diff_us,
        trace.mean_vs_true_us,
        trace.present_counts,
        trace.reference_ids,
    ):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr(sorted(scalars.items())).encode())
    return h.hexdigest()


def _window_max(trace: Any, start_s: float, end_s: float) -> float:
    return float(np.max(trace.window(start_s * S, end_s * S).max_diff_us))


def check_job(job: Job, trace: Any, scalars: Dict[str, Any]) -> Optional[str]:
    """None when the job's output passes every check, else the reason.

    Structural checks hold for every job. The paper-level bounds are the
    ones the tree's own tests assert. The multi-hop SSTSP depth blow-up is
    deliberately not a check: it stays visible in ``sync_error_us``.
    """
    if len(trace) != job.periods:
        return f"trace holds {len(trace)} samples for {job.periods} periods"
    if not np.all(np.isfinite(trace.max_diff_us)):
        return "non-finite max clock difference"
    if not np.all(np.isfinite(trace.times_us)):
        return "non-finite sample time"
    if scalars["joined"] != job.n:
        return f"only {scalars['joined']} of {job.n} stations joined"
    steady = trace.steady_state_error_us()
    if not math.isfinite(steady) or steady < 0:
        return f"steady-state error {steady!r}"
    if job.workload == "multihop_grid":
        return None
    start_s, end_s = job.attack_window_s
    if job.protocol in ("sstsp", "secure"):
        if steady >= LEMMA1_BOUND_US:
            return f"steady-state error {steady:.2f} us breaks Lemma 1 (< {LEMMA1_BOUND_US} us)"
        if job.attack:
            window = trace.window((start_s + 1.0) * S, end_s * S).max_diff_us
            during = float(np.median(window))
            if during >= LEMMA1_BOUND_US:
                return f"insider lifted the attack-window error to {during:.1f} us"
    elif job.attack:
        before = _window_max(trace, start_s - 50.0, start_s)
        during = _window_max(trace, start_s + 2.0, end_s)
        if during <= TSF_ATTACK_FACTOR * before:
            return f"channel attack did not desynchronize TSF ({during:.1f} vs {before:.1f} us)"
    return None
