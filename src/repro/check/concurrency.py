"""Shared concurrency semantics for the dynamic and static race layers.

:mod:`repro.check.races` (the dynamic access-log detector) and
:mod:`repro.check.flow.memsafe` (the static verifier over kernel
specs) reason about the *same* machine model. This module is the
single definition both consume, so the two layers cannot drift:

* **Sync edges.** A kernel launch is a global synchronization edge:
  accesses in different kernel steps are ordered and can never race.
  Dynamically that is ``AccessLog.next_step``; statically it is the
  may-happen-in-parallel rule "only same-launch accesses are
  concurrent".
* **Wavefront granularity.** Lanes of one wavefront execute in
  lockstep, so intra-wavefront interleavings cannot produce the
  read-stale-then-write hazards the conflict-resolution cycle exists
  to repair. Dynamically: an element touched by a single wavefront is
  never a finding. Statically: two accesses whose indices coincide
  only when the owning thread/wavefront coincides are exempt.
* **The atomic exemption.** Atomic RMW sequences serialize at the
  memory controller, so an element whose every same-step access is
  atomic is ordered, not racy.
* **The conflict rule** itself: same element, same step, ≥2 distinct
  wavefronts, at least one write, not all-atomic
  (:func:`classify_bucket`).
* **In-place arrays.** Which kernel specs deliberately run in place
  over shared state (:data:`INPLACE_ARRAYS`). Both layers derive each
  launch's physical aliasing of ``colors_in``/``colors_out`` from it
  and :func:`logical_array`, and an algorithm's *expected-racy*
  arrays are those of its in-place kernels (:func:`expected_racy`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BucketConflicts",
    "DEFAULT_WAVEFRONT_SIZE",
    "INPLACE_ARRAYS",
    "classify_bucket",
    "expected_racy",
    "inplace_arrays",
    "logical_array",
    "wavefront_of",
]

#: lanes per wavefront in the simulated machine model (GCN Tahiti).
DEFAULT_WAVEFRONT_SIZE = 64

#: kernel spec → logical arrays it mutates *in place* while other
#: threads of the same launch read them. In-place sharing is the one
#: way a spec can race by design: the speculative kernels first-fit
#: against a snapshot their neighbors are concurrently overwriting and
#: repair the damage in a detect pass. The independent-set sweeps
#: double-buffer (``colors_in``/``colors_out``) and stay race-free, also
#: as the max-min phase of hybrid-switch.
INPLACE_ARRAYS: dict[str, frozenset[str]] = {
    "maxmin_sweep": frozenset(),
    "maxmin_wavefront_sweep": frozenset(),
    "jp_sweep": frozenset(),
    "spec_assign": frozenset({"colors"}),
    "spec_detect": frozenset({"colors"}),
    "ec_edge_fold": frozenset(),
    "ec_decide": frozenset(),
}


def inplace_arrays(kernel: str) -> frozenset[str]:
    """The logical arrays kernel spec ``kernel`` updates in place.

    Unknown kernels get the safe default: none, so every snapshot pair
    stays two buffers and a same-launch race on it is reported.
    """
    return INPLACE_ARRAYS.get(kernel, frozenset())


def expected_racy(algorithm: str) -> frozenset[str]:
    """Arrays on which races are *by design* for ``algorithm``.

    Exactly the in-place arrays of its kernels: racing requires
    same-launch writers and readers of one physical buffer, which only
    in-place kernels have. Unknown algorithms get the safe default
    (nothing expected).
    """
    from ..coloring.device_kernels import DEVICE_KERNELS

    return frozenset(
        array
        for k in DEVICE_KERNELS.values()
        if algorithm in k.algorithms
        for array in inplace_arrays(k.name)
    )


def wavefront_of(threads: np.ndarray, wavefront_size: int) -> np.ndarray:
    """Wavefront ids for logical SIMT thread ids (lockstep granularity)."""
    return np.asarray(threads) // wavefront_size


def logical_array(name: str) -> str:
    """Spec parameter → logical array: a snapshot pair shares one name.

    ``colors_in``/``colors_out`` are the two buffers of one logical
    ``colors``; in a kernel whose :data:`INPLACE_ARRAYS` entry names
    ``colors`` they are one physical buffer.
    """
    if name in ("colors_in", "colors_out"):
        return "colors"
    return name


@dataclass(frozen=True)
class BucketConflicts:
    """The racy elements of one (array, step) bucket, in index order.

    ``order`` sorts the bucket's accesses by (element index,
    wavefront); ``order[starts[k]:starts[k] + sizes[k]]`` are the
    positions of racy element ``k``'s accesses.
    """

    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    num_wavefronts: np.ndarray
    has_write_write: np.ndarray


def classify_bucket(
    indices: np.ndarray,
    wavefronts: np.ndarray,
    writes: np.ndarray,
    atomics: np.ndarray,
) -> BucketConflicts:
    """Apply the conflict rule to every element of one (array, step) bucket.

    Takes the bucket's access columns as int64 indices and wavefronts
    and bool write/atomic flags. An element races when its accesses come from ≥2 distinct
    wavefronts, at least one is a write, and they are not all atomic;
    the conflict is write/write when ≥2 distinct wavefronts write it.
    Read-only, single-wavefront (lockstep) and all-atomic (ordered at
    the memory controller) elements are not reported. Callers bucket
    accesses per (array, step); the sync-edge rule is theirs — this
    function never sees accesses from different steps.
    """
    order = np.argsort(indices * (int(wavefronts.max(initial=0)) + 1) + wavefronts)
    idx, wf, wr, at = indices[order], wavefronts[order], writes[order], atomics[order]
    new_element = np.ones(idx.size, dtype=bool)
    new_element[1:] = idx[1:] != idx[:-1]
    new_pair = new_element.copy()  # a new (element, wavefront) pair
    new_pair[1:] |= wf[1:] != wf[:-1]
    group = np.cumsum(new_element) - 1
    pair = np.cumsum(new_pair) - 1
    starts = np.flatnonzero(new_element)
    groups = starts.size
    sizes = np.diff(np.append(starts, idx.size))
    any_write = np.bincount(group[wr], minlength=groups) > 0
    all_atomic = np.bincount(group[at], minlength=groups) == sizes
    pair_group = group[new_pair]
    num_wf = np.bincount(pair_group, minlength=groups)
    pair_writes = np.bincount(pair[wr], minlength=pair_group.size) > 0
    writing_wf = np.bincount(pair_group[pair_writes], minlength=groups)
    racy = np.flatnonzero(any_write & ~all_atomic & (num_wf >= 2))
    return BucketConflicts(
        order=order,
        starts=starts[racy],
        sizes=sizes[racy],
        num_wavefronts=num_wf[racy],
        has_write_write=writing_wf[racy] >= 2,
    )
