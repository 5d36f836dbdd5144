"""The benchmark's workloads: trial specs generated from the benchmark seed.

Every spec list is a pure function of ``(workload, seed, role, pass)``.  The
roles keep the inputs of one pass apart: ``warmup`` specs warm the kernel's
template cache, the pool fork and its cost model on seeds the timed specs
never use, because the columnar memos in ``engine.vectorized`` persist in
pool workers and would otherwise answer timed trials; ``timed`` specs are
the cold campaign; ``stream`` specs are the campaign submitted over HTTP
before the reader polls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

ROLES = ("timed", "warmup", "stream")

#: Adversaries of the columnar sweep (independent and coordinated).
SWEEP_ADVERSARIES = (
    "none",
    "crash",
    "outside_hull",
    "coordinate_attack",
    "split_world",
    "hull_collapse",
    "adaptive_extreme",
)

#: The fuzz mix's compositions (protocol, workload, adversary, n/d/f) come
#: from ``sample_specs`` at this fixed seed; the benchmark seed draws each
#: pass's trial seeds, which fix the inputs and the adversaries' randomness.
FUZZ_COMPOSITION_SEED = 31


@dataclass(frozen=True)
class Sizes:
    """Trials (grid repeats for the sweep) per role."""

    timed: int
    warmup: int
    stream: int


#: Work per cycle of each workload, at full size and at the tests' smoke size.
WORKLOADS = {
    "sweep_columnar": (Sizes(timed=2, warmup=2, stream=2), Sizes(timed=2, warmup=2, stream=2)),
    "fuzz_mixed": (Sizes(timed=64, warmup=24, stream=24), Sizes(timed=8, warmup=4, stream=4)),
    "store_serve": (Sizes(timed=500, warmup=100, stream=300), Sizes(timed=40, warmup=10, stream=20)),
}


def derive_seed(seed: int, *parts: int) -> int:
    """A 32-bit seed that is a pure function of ``seed`` and ``parts``."""
    sequence = np.random.SeedSequence([seed, *parts])
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


def build_specs(workload: str, seed: int, role: str, index: int, smoke: bool = False) -> list:
    """The spec list cycle ``index`` of ``workload`` runs in ``role``."""
    from repro.engine import Campaign, sample_specs

    full, small = WORKLOADS[workload]
    size = getattr(small if smoke else full, role)
    role_seed = derive_seed(
        seed, list(WORKLOADS).index(workload), ROLES.index(role), index
    )
    if workload == "sweep_columnar":
        campaign = Campaign.from_grid(
            f"{workload}-{role}",
            protocols=("restricted_sync",),
            adversaries=SWEEP_ADVERSARIES,
            dimensions=(2,),
            fault_bounds=(1,),
            process_counts=(13,),
            max_rounds_override=3,
            repeats=size,
            base_seed=role_seed,
        )
        return list(campaign.specs)
    if workload == "fuzz_mixed":
        composition = sample_specs(size, seed=FUZZ_COMPOSITION_SEED, protocols=("exact",))
        children = np.random.SeedSequence(role_seed).spawn(len(composition))
        return [
            replace(trial, seed=int(child.generate_state(1, dtype=np.uint32)[0]))
            for trial, child in zip(composition, children)
        ]
    campaign = Campaign.from_grid(
        f"{workload}-{role}",
        protocols=("exact",),
        dimensions=(1,),
        fault_bounds=(1,),
        repeats=size,
        base_seed=role_seed,
    )
    return list(campaign.specs)
