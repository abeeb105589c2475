"""Outside-in tracing: wrappers around each layer's public calls.

Nothing here edits the program. :class:`instrumented` replaces, for the
duration of a ``with`` block, the attribute each caller looks up (a
module-level name, or a method on its class) with a wrapper that records
a span and, for some sites, observes the call's arguments or result.
Leaving the block restores every original object.

Spans carry the job id, the job phase (construct or run), the nesting
depth and their start and end, and are kept in compact arrays until the
run ends. Self time is a span's duration minus that of the spans nested
directly inside it; because spans close in post-order, one pass over the
arrays computes it.

Very fine-grained sites (clock conversions, RNG draws, engine heap
operations) are counted, not timed: by the program's own work counters
(``repro.obs.count_work``) and, for the reference lane's clock
conversions that those counters do not see, by counting wrappers.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.counters import current_counters

CONSTRUCT, RUN = 0, 1

# Roles of a timed site. "busy": self time counts to ``<layer>.busy_s``;
# "entry": a lane entry point, self time counts to ``<layer>.self_s``;
# "setup": construction call, inclusive time counts to ``<layer>.setup_s``;
# "topology": inclusive time counts to ``multihop.topology_s``.


class SpanRecorder:
    """In-memory span store plus per-call observations."""

    def __init__(self) -> None:
        self.site_layers: List[str] = []
        self.site_roles: List[str] = []
        self.job = array("l")
        self.site = array("l")
        self.depth = array("l")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self.obs: Dict[str, float] = {}
        self.current_job = -1
        self.current_phase = RUN
        self.level = 0
        self.recording = True

    def add_site(self, layer: str, role: str) -> int:
        self.site_layers.append(layer)
        self.site_roles.append(role)
        return len(self.site_layers) - 1

    def note(self, key: str, by: float = 1) -> None:
        if self.recording:
            self.obs[key] = self.obs.get(key, 0) + by

    def aggregate(self) -> Tuple[Dict[int, Dict[str, float]], Dict[int, float]]:
        """Per-site totals and per-job covered time.

        Returns ``({site: {"self", "incl", "calls", "setup_self"}},
        {job: time covered by top-level spans})``.
        """
        per_site: Dict[int, Dict[str, float]] = {}
        covered: Dict[int, float] = {}
        children = [0.0] * (max(self.depth, default=0) + 2)
        for job, site, depth, phase, t0, t1 in zip(
            self.job, self.site, self.depth, self.phase, self.start, self.end
        ):
            duration = t1 - t0
            self_time = duration - children[depth + 1]
            children[depth + 1] = 0.0
            if depth == 0:
                covered[job] = covered.get(job, 0.0) + duration
            else:
                children[depth] += duration
            entry = per_site.setdefault(
                site, {"self": 0.0, "incl": 0.0, "calls": 0, "setup_self": 0.0}
            )
            entry["self"] += self_time
            entry["incl"] += duration
            entry["calls"] += 1
            if phase == CONSTRUCT:
                entry["setup_self"] += self_time
        return per_site, covered


def _timed(rec: SpanRecorder, site: int, fn: Callable, observe: Optional[Callable]) -> Callable:
    clock = time.perf_counter
    spans = (rec.job, rec.site, rec.depth, rec.phase, rec.start, rec.end)
    job_a, site_a, depth_a, phase_a, start_a, end_a = spans
    before = getattr(observe, "before", None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before() if before is not None else None
        level = rec.level
        rec.level = level + 1
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            rec.level = level
            if rec.recording:
                job_a.append(rec.current_job)
                site_a.append(site)
                depth_a.append(level)
                phase_a.append(rec.current_phase)
                start_a.append(t0)
                end_a.append(t1)
        if observe is not None:
            observe(rec, args, result, token)
        return result

    return wrapper


def _counted(rec: SpanRecorder, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.note(key)
        return fn(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# Observers: called after the call as observe(rec, args, result, token),
# where token is what the observer's optional ``before()`` returned.
# ---------------------------------------------------------------------------


def _attempts() -> int:
    sink = current_counters()
    return sink.total("phy.delivery_attempt") if sink is not None else 0


def _observe_contention(rec, args, result, token):
    rec.note("mac.transmissions", len(result.transmissions))
    rec.note("mac.collided", result.collisions)


def _observe_deliver_window(rec, args, result, token):
    _self, transmissions, receivers = args[:3]
    rec.note("phy.candidate_pairs", len(transmissions) * len(receivers))
    attempts = _attempts() - token
    rec.note("phy.window_attempts", attempts)
    rec.note("phy.wrapped_attempts", attempts)
    rec.note("phy.deliveries", sum(len(v) for v in result.receptions.values()))


def _observe_broadcast(rec, args, result, token):
    rec.note("phy.wrapped_attempts", _attempts() - token)
    rec.note("phy.deliveries", len(result))


_observe_deliver_window.before = _attempts  # type: ignore[attr-defined]
_observe_broadcast.before = _attempts  # type: ignore[attr-defined]


def _observe_receptions(rec, args, result, token):
    rec.note("protocols.receptions")
    rec.note("protocols.accepted", 1 if result else 0)


def _observe_receive(rec, args, result, token):
    rec.note("crypto.receives")
    rec.note("crypto.released", len(result))


def _observe_hash_iter(rec, args, result, token):
    rec.note("crypto.chain_hashes", int(args[1]))


def _observe_dense_chain(rec, args, result, token):
    rec.note("crypto.chain_hashes", int(args[2]))


def _observe_sample(rec, args, result, token):
    rec.note("analysis.samples")


_MULTIHOP_HOOKS = (
    "begin_period", "make_frame", "on_receptions", "end_period",
    "on_leave", "on_return", "wants_root_takeover", "on_elected_root",
)
_SSTSP_HOOKS = (
    "on_period_time", "begin_period", "make_frame", "on_beacon", "end_period",
    "on_leave", "on_return",
)


def _sites() -> List[Tuple[Any, str, str, str, Optional[Callable]]]:
    """(owner, attribute, layer, role, observer) for every timed site.

    ``owner`` is the module or class the caller looks the name up on.
    """
    mod = importlib.import_module
    contention = mod("repro.mac.contention")
    net_runner = mod("repro.network.runner")
    mh_runner = mod("repro.multihop.runner")
    channel = mod("repro.phy.channel")
    mh_base = mod("repro.protocols.multihop_base")
    sstsp = mod("repro.core.sstsp")
    attacks = mod("repro.security.attacks")
    backend = mod("repro.core.backend")
    mutesla = mod("repro.crypto.mutesla")
    hashchain = mod("repro.crypto.hashchain")
    metrics = mod("repro.analysis.metrics")
    topology = mod("repro.multihop.topology")
    sites: List[Tuple[Any, str, str, str, Optional[Callable]]] = [
        (mod("repro.fastlane"), "run_tsf_vectorized", "fastlane", "entry", None),
        (mod("repro.fastlane"), "run_sstsp_vectorized", "fastlane", "entry", None),
        # fastlane.common imports resolve_contention inside resolve_window,
        # i.e. from the defining module at every call.
        (contention, "resolve_contention", "mac", "busy", _observe_contention),
        (net_runner, "resolve_contention", "mac", "busy", _observe_contention),
        (net_runner, "partition_domains", "mac", "busy", None),
        (mh_runner, "resolve_neighborhood", "mac", "busy", None),
        (channel.SpatialBroadcastChannel, "deliver_window", "phy", "busy",
         _observe_deliver_window),
        (channel.BroadcastChannel, "broadcast", "phy", "busy", _observe_broadcast),
        (channel.BroadcastChannel, "sample_timestamp_error", "phy", "busy", None),
        (mh_runner.MultiHopRunner, "run", "multihop", "entry", None),
        (mh_runner.MultiHopRunner, "__init__", "multihop", "setup", None),
        (topology.Topology, "grid", "multihop", "setup", None),
        (topology.Topology, "chain", "multihop", "setup", None),
        (topology.Topology, "hop_distances", "multihop", "topology", None),
        (mod("repro.network.ibss"), "build_network", "network", "entry", None),
        (net_runner.NetworkRunner, "run", "network", "entry", None),
        (backend.FullCryptoBackend, "process", "core", "busy", None),
        (backend.ModeledCryptoBackend, "process", "core", "busy", None),
        (mutesla.MuTeslaReceiver, "receive", "crypto", "busy", _observe_receive),
        (mutesla.MuTeslaSender, "secure", "crypto", "busy", None),
        (hashchain.DenseHashChain, "__init__", "crypto", "busy", _observe_dense_chain),
        (backend, "hash128_iter", "crypto", "busy", _observe_hash_iter),
        (metrics.TraceRecorder, "record", "analysis", "busy", _observe_sample),
        (metrics.TraceRecorder, "finalize", "analysis", "busy", None),
    ]
    for cls in (sstsp.SstspProtocol, attacks.SstspInsiderAttacker):
        for name in _SSTSP_HOOKS:
            if name in vars(cls):
                sites.append((cls, name, "core", "busy", None))
    protocol_classes = [mh_base.MultiHopProtocol] + [
        mh_base.resolve_multihop_protocol(name)
        for name in mh_base.available_multihop_protocols()
    ]
    for cls in protocol_classes:
        for name in _MULTIHOP_HOOKS:
            if name in vars(cls):
                observe = _observe_receptions if name == "on_receptions" else None
                sites.append((cls, name, "protocols", "busy", observe))
    return sites


def _counted_sites() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, key): the reference lane's clock conversions."""
    node = importlib.import_module("repro.network.node").Node
    return [
        (node, "scheduled_true_time", "clocks.node_conversions"),
        (node, "synchronized_time_at", "clocks.node_conversions"),
    ]


class instrumented:
    """Install every wrapper on entry; restore the originals on exit."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, raw))
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(make(raw.__func__)))
        else:
            setattr(owner, name, make(raw))

    def __enter__(self) -> SpanRecorder:
        rec = self.rec
        for owner, name, layer, role, observe in _sites():
            site = rec.add_site(layer, role)
            self._replace(owner, name, lambda fn, s=site, o=observe: _timed(rec, s, fn, o))
        for owner, name, key in _counted_sites():
            self._replace(owner, name, lambda fn, k=key: _counted(rec, k, fn))
        return rec

    def __exit__(self, *exc_info: object) -> None:
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()
