"""repro.faults: deterministic fault injection and chaos testing.

``FaultPlan`` describes seeded fault schedules compiled into a design at
elaboration time; ``repro.faults.chaos`` sweeps hundreds of schedules and
asserts the system's robustness contract (terminate bounded, fail typed,
never corrupt silently).
"""

from repro._lazy import lazy_exports

_LAZY = {
    "FAULT_KINDS": "repro.faults.plan",
    "CommandTimeout": "repro.faults.errors",
    "CoreQuarantined": "repro.faults.errors",
    "FaultedResponse": "repro.faults.errors",
    "FaultError": "repro.faults.errors",
    "FaultEvent": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "FaultState": "repro.faults.plan",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
