"""Versioned campaign specifications (``repro-campaign-spec/1``).

A :class:`CampaignSpec` is the unit of work a tenant submits to the
campaign service: a request kind (``grid`` | ``fuzz`` | ``chaos``), the
workload/system/config/seed axes to cross, and scheduling metadata
(priority, an optional arrival-process spec for load modeling).  Specs
are validated eagerly at construction — an unknown workload or a
misspelled TMI config knob fails at submission time with a
:class:`~repro.errors.CampaignSpecError`, not an hour later inside a
worker process — and serialize to a stable JSON document whose digest
contributes the campaign's identity.

:meth:`CampaignSpec.cells` expands the spec into the exact keyword
dicts :func:`repro.eval.runner.run_workload` takes, which is also the
identity the content-addressed store hashes: two specs that overlap on
some (workload, system, config, seed) tuples will derive the same
digests for those cells and share results.
"""

import itertools
import json
from dataclasses import dataclass, field, fields as dc_fields

from repro.core.config import TmiConfig
from repro.errors import CampaignSpecError
from repro.eval.report import write_json
from repro.eval.systems import SYSTEM_NAMES
from repro.workloads import has as workload_exists

#: Versioned spec format tag.
SPEC_FORMAT = "repro-campaign-spec/1"

#: Campaign request kinds.
KINDS = ("grid", "fuzz", "chaos")

#: Valid TMI config override keys (the TmiConfig field names).
CONFIG_KEYS = frozenset(f.name for f in dc_fields(TmiConfig))


def _tuple(value):
    if value is None:
        return ()
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass
class CampaignSpec:
    """One tenant's experiment-campaign request.

    The cell axes are ``workloads x systems x configs x seeds``;
    ``seeds`` parameterize schedule fuzzing (``fuzz``) or fault plans
    (``chaos``) and default to a single unseeded cell for plain
    ``grid`` requests.
    """

    workloads: tuple
    systems: tuple = ("pthreads",)
    kind: str = "grid"
    #: TMI config override dicts; one empty dict = the stock config.
    configs: tuple = ({},)
    seeds: tuple = (None,)
    scale: float = 0.1
    nthreads: object = None
    #: Lower runs sooner (asyncio.PriorityQueue ordering).
    priority: int = 0
    name: str = ""
    #: Submitting tenant (quota + fairness identity under the
    #: resilience layer; empty = the anonymous default tenant).
    #: Deliberately *not* part of any cell — two tenants requesting
    #: the same cell share one cached result.
    tenant: str = ""
    #: Schedule-perturbation policy for ``fuzz`` campaigns.
    policy: str = "random"
    #: Fault-rate intensity for ``chaos`` campaigns (see
    #: :func:`repro.faults.default_rates`).
    fault_intensity: float = 0.5
    #: Arrival-process spec for load modeling, e.g.
    #: ``{"process": "poisson", "rate": 4.0, "seed": 1}``.
    arrival: object = None
    #: Free-form tenant metadata (not part of any cell identity).
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.workloads = _tuple(self.workloads)
        self.systems = _tuple(self.systems)
        self.configs = tuple(dict(c) for c in _tuple(self.configs)) \
            or ({},)
        self.seeds = _tuple(self.seeds) or (None,)
        self.validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self):
        """Raise :class:`CampaignSpecError` on any malformed field."""
        if self.kind not in KINDS:
            raise CampaignSpecError(
                f"unknown campaign kind {self.kind!r} (known: {KINDS})")
        if not self.workloads:
            raise CampaignSpecError("a campaign needs >= 1 workload")
        for name in self.workloads:
            if not workload_exists(name):
                raise CampaignSpecError(f"unknown workload {name!r}")
        if not self.systems:
            raise CampaignSpecError("a campaign needs >= 1 system")
        for system in self.systems:
            if system not in SYSTEM_NAMES:
                raise CampaignSpecError(
                    f"unknown system {system!r} "
                    f"(known: {list(SYSTEM_NAMES)})")
        for config in self.configs:
            unknown = set(config) - CONFIG_KEYS
            if unknown:
                raise CampaignSpecError(
                    f"unknown TMI config key(s) {sorted(unknown)}")
        for seed in self.seeds:
            if seed is not None and not isinstance(seed, int):
                raise CampaignSpecError(
                    f"seeds must be ints (got {seed!r})")
        if self.kind != "grid" and any(s is None for s in self.seeds):
            raise CampaignSpecError(
                f"{self.kind} campaigns need integer seeds")
        if not (isinstance(self.scale, (int, float)) and self.scale > 0):
            raise CampaignSpecError(f"bad scale {self.scale!r}")
        if not isinstance(self.priority, int):
            raise CampaignSpecError(f"bad priority {self.priority!r}")
        if not isinstance(self.tenant, str):
            raise CampaignSpecError(f"bad tenant {self.tenant!r}")
        if self.arrival is not None:
            if not isinstance(self.arrival, dict):
                raise CampaignSpecError(
                    f"arrival spec must be a dict "
                    f"(got {self.arrival!r})")
            if "process" not in self.arrival:
                raise CampaignSpecError(
                    "arrival spec needs a 'process' key")

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def cells(self):
        """The spec's cell list: ``run_workload`` keyword dicts.

        This expansion *is* the cache identity — the content-addressed
        store hashes exactly these dicts.
        """
        out = []
        # a plain grid has one deterministic result per cell; replica
        # seeds would only re-derive identical digests
        seeds = (None,) if self.kind == "grid" else self.seeds
        axes = itertools.product(self.workloads, self.systems,
                                 self.configs, seeds)
        for workload, system, config, seed in axes:
            cell = {"name": workload, "system": system,
                    "scale": self.scale}
            if self.nthreads is not None:
                cell["nthreads"] = self.nthreads
            if config:
                cell["config"] = dict(config)
            if self.kind == "fuzz":
                cell["schedule"] = {"policy": self.policy,
                                    "seed": int(seed)}
            elif self.kind == "chaos":
                from repro.faults import default_rates
                cell["faults"] = {
                    "seed": int(seed),
                    "rates": default_rates(self.fault_intensity),
                    "limits": {}}
            out.append(cell)
        return out

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self):
        """The spec as a stable ``repro-campaign-spec/1`` document."""
        return {"format": SPEC_FORMAT, "kind": self.kind,
                "workloads": list(self.workloads),
                "systems": list(self.systems),
                "configs": [dict(c) for c in self.configs],
                "seeds": list(self.seeds), "scale": self.scale,
                "nthreads": self.nthreads, "priority": self.priority,
                "name": self.name, "tenant": self.tenant,
                "policy": self.policy,
                "fault_intensity": self.fault_intensity,
                "arrival": self.arrival, "meta": dict(self.meta)}

    @classmethod
    def from_dict(cls, data):
        """Rebuild a spec from :meth:`to_dict` output (format-guarded)."""
        if not isinstance(data, dict) \
                or data.get("format") != SPEC_FORMAT:
            tag = data.get("format") if isinstance(data, dict) else None
            raise CampaignSpecError(
                f"unsupported campaign spec format {tag!r} "
                f"(expected {SPEC_FORMAT})")
        kwargs = {k: v for k, v in data.items() if k != "format"}
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise CampaignSpecError(f"malformed spec: {exc}") from exc

    def save(self, path):
        """Write the spec JSON to ``path`` (atomic); returns the path."""
        write_json(path, self.to_dict())
        return path

    @classmethod
    def load(cls, path):
        """Read a spec JSON from ``path`` (typed errors on bad input)."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CampaignSpecError(
                f"spec {path}: corrupted JSON ({exc})") from exc
        except OSError as exc:
            raise CampaignSpecError(
                f"spec {path}: unreadable ({exc})") from exc
        return cls.from_dict(data)

    def digest(self, length=10):
        """Short stable digest of the spec (campaign-id material)."""
        import hashlib
        text = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:length]
