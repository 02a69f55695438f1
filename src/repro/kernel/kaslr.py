"""KASLR slot selection and FGKASLR function shuffling."""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Optional

from repro.kernel.layout import (
    DEFAULT_SYMBOL_OFFSETS,
    KASLR_ALIGN,
    KASLR_SLOTS,
    KERNEL_IMAGE_SIZE,
    KernelLayout,
    slot_base,
)


def user_mapped_slots(
    layout: KernelLayout, kpti: bool, probe_offset: int = 0
) -> FrozenSet[int]:
    """Sweep slots whose probe address the *user* page table maps.

    A TET-KASLR sweep probes ``slot_base(slot) + probe_offset`` for all
    512 slots; this predicts which of those candidates resolve to a
    mapped page from user space -- the whole image without KPTI, exactly
    the 4 KiB trampoline remnant with it.  The batch executor's KASLR
    packs evict precisely these lanes from a sweep pack (a mapped
    candidate's walk cannot be isomorphic to an unmapped leader's), so
    tests and capacity planning read the expected eviction set from
    here.
    """
    trampoline_page = layout.trampoline_va & ~0xFFF
    mapped = set()
    for slot in range(KASLR_SLOTS):
        va = slot_base(slot) + probe_offset
        if kpti:
            if va & ~0xFFF == trampoline_page:
                mapped.add(slot)
        elif layout.contains(va):
            mapped.add(slot)
    return frozenset(mapped)


def randomize_layout(
    seed: Optional[int] = None,
    kaslr: bool = True,
    fgkaslr: bool = False,
) -> KernelLayout:
    """Pick this boot's kernel placement.

    With ``kaslr=False`` the kernel sits at slot 0 (the pre-KASLR world).
    With ``fgkaslr=True`` the function symbols are additionally shuffled
    inside the image, so learning ``base`` no longer reveals where any
    particular function is -- the §6.2 mitigation.
    """
    rng = random.Random(seed)
    image_slots = KERNEL_IMAGE_SIZE // KASLR_ALIGN
    slot = rng.randrange(0, KASLR_SLOTS - image_slots) if kaslr else 0
    symbols: Dict[str, int] = dict(DEFAULT_SYMBOL_OFFSETS)
    if fgkaslr:
        symbols = _shuffle_functions(symbols, rng)
    return KernelLayout(base=slot_base(slot), slot=slot, symbols=symbols)


def _shuffle_functions(symbols: Dict[str, int], rng: random.Random) -> Dict[str, int]:
    """Scatter every non-pinned symbol to a random offset in the image.

    ``startup_64`` (the image base) and ``entry_SYSCALL_64`` (the KPTI
    trampoline entry, which must stay at its fixed physical location) keep
    their offsets, exactly as FGKASLR pins them.
    """
    pinned = {"startup_64", "entry_SYSCALL_64"}
    shuffled: Dict[str, int] = {}
    used = set()
    for name, offset in symbols.items():
        if name in pinned:
            shuffled[name] = offset
            continue
        while True:
            candidate = rng.randrange(0x1000, KERNEL_IMAGE_SIZE, 0x10)
            if candidate not in used:
                used.add(candidate)
                shuffled[name] = candidate
                break
    return shuffled
