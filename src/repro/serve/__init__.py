"""``repro.serve`` — the multi-tenant accelerator serving layer.

Layers admission control (:class:`AdmissionController`), weighted
deficit-round-robin fair scheduling (:class:`DrrScheduler`), command
batching, and named-kernel heterogeneous routing (:class:`KernelRouter`) on
top of :class:`repro.runtime.FpgaHandle`, plus a deterministic load
generator (:mod:`repro.serve.loadgen`) that proves the layer's SLOs.  See
DESIGN.md ("Multi-tenant serving layer") for the model and its determinism
contract.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "AcceleratorService": "repro.serve.service",
    "AdmissionController": "repro.serve.tenant",
    "AdmissionRejected": "repro.serve.errors",
    "ClosedLoop": "repro.serve.loadgen",
    "CoreSlot": "repro.serve.routing",
    "DrrScheduler": "repro.serve.scheduler",
    "KernelRouter": "repro.serve.routing",
    "LoadBudgetExceeded": "repro.serve.loadgen",
    "LoadGenerator": "repro.serve.loadgen",
    "OpenLoop": "repro.serve.loadgen",
    "REJECT_REASONS": "repro.serve.errors",
    "ServeError": "repro.serve.errors",
    "ServeTicket": "repro.serve.tenant",
    "ServingReport": "repro.serve.loadgen",
    "TenantConfig": "repro.serve.tenant",
    "TenantLoad": "repro.serve.loadgen",
    "TenantSession": "repro.serve.service",
    "TenantState": "repro.serve.tenant",
    "TokenBucket": "repro.serve.tenant",
    "UnknownTenant": "repro.serve.errors",
    "jain_index": "repro.serve.loadgen",
    "percentile": "repro.serve.loadgen",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
