"""Seeded inputs of the four workloads, their digests and input properties.

Everything here derives from the workload seed alone: the same seed gives
byte-identical inputs, which :func:`digest` lets two runs show.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from typing import Optional

#: One refinement budget for every workload, never a wall-clock budget:
#: ``max_seconds`` is only checked inside ``explore``, so a 10 s budget let
#: initcheck_buggy run 24.7 s.  Every decidable suite program needs at most
#: 3 refinements; partition stops on its own ("no progress") at 4.
MAX_REFINEMENTS = 5

#: Programs of one ``loopfree`` pass (one ``Session``).
LOOPFREE_PROGRAMS = 600
#: Distinct slices of that size per ``loopfree`` run, taken by the passes in
#: turn: with one slice repeated, which 30 programs formed the tail decided
#: the run's p95, and its ten-seed spread reached 28%.
LOOPFREE_SLICES = 4
#: Generated files of one ``cli`` pass.
CLI_FILES = 12
#: Distinct ``cli`` slices of :data:`CLI_FILES` files, taken by the passes in
#: turn, so that a run averages over 48 programs rather than 12.
CLI_SLICES = 4
#: The suite programs the engine leaves UNKNOWN at this budget.  The daemon
#: never receives them: they are never banked, so every repeat would re-run
#: 4-23 s of refinement; ``suite`` covers them.
UNDECIDED_SUITE = ("partition", "initcheck_buggy")
#: Fresh loop-free programs in one daemon block; the other arrivals of a
#: block repeat each decidable suite program once.  14 repeats and 6 fresh
#: arrivals give the 70/30 repeat/fresh mix exactly in every block.
DAEMON_FRESH_PER_BLOCK = 6
#: Distinct daemon blocks per run, taken by the passes in turn.  A block
#: takes about 1.4 s on a 2-CPU host, so a 20 s box uses about 15; the fresh
#: programs of a block are only fresh the first time it runs.
DAEMON_BLOCKS = 32
#: Copies of a burst: the four concurrent clients that submit the same
#: suite in ``tests/serve/test_service_e2e.py``.
DAEMON_BURST_SIZE = 4
#: Bursts per block (3 on suite repeats, 1 on a fresh program, keeping the
#: 70/30 mix among bursts too).  An assumption: the repo records no
#: production traffic to take a share from.  4 of 20 arrivals makes half of
#: the requests (16 of 32) part of a burst, so coalesced and executed
#: requests weigh alike in the serve layer's figures.
DAEMON_BURSTS_ON_REPEATS = 3
DAEMON_BURSTS_ON_FRESH = 1

_ARRAY_USE = re.compile(r"\b[A-Za-z_]\w*\s*\[")
_ARRAY_DECL = re.compile(r"\bint\s+[A-Za-z_]\w*\s*\[")


@dataclass(frozen=True)
class Input:
    """One program to verify, with its known answer when one exists."""

    name: str
    source: str
    #: ``"safe"``/``"unsafe"`` when the answer is known independently of the
    #: engine (suite expectations, planted bugs), else ``None`` (unchecked).
    expected: Optional[str]
    planted: bool = False

    @property
    def loops(self) -> bool:
        return "while" in self.source

    @property
    def arrays(self) -> bool:
        """Reads or writes an array (a bare declaration does not count)."""
        return len(_ARRAY_USE.findall(self.source)) > len(_ARRAY_DECL.findall(self.source))


@dataclass(frozen=True)
class Arrival:
    """One daemon arrival: ``copies`` identical requests sent together."""

    input: Input
    copies: int = 1


@dataclass
class Inputs:
    """A workload's inputs: a program list, or a daemon schedule."""

    programs: list[Input]
    schedule: list[Arrival] = field(default_factory=list)
    #: Inputs of one pass (0: all of them); passes take slices in turn.
    pass_size: int = 0

    def slices(self) -> list[list[Input]]:
        return _cut(self.programs, self.pass_size)

    def blocks(self) -> list[list[Arrival]]:
        """The daemon schedule cut into passes."""
        return _cut(self.schedule, self.pass_size)


def _cut(items: list, size: int) -> list:
    size = size or len(items)
    return [items[start : start + size] for start in range(0, len(items), size)]


def suite_inputs() -> list[Input]:
    from repro.lang.programs import PROGRAMS

    return [
        Input(name, program.source, "safe" if program.expected_safe else "unsafe")
        for name, program in sorted(PROGRAMS.items())
    ]


def generated_inputs(seed: int, count: int) -> list[Input]:
    """A loop-free ``testgen`` corpus; every third program has a planted bug."""
    from repro.testgen import GenConfig, generate_corpus

    return [
        Input(
            program.name,
            program.source,
            "unsafe" if program.expect_unsafe else None,
            planted=program.expect_unsafe,
        )
        for program in generate_corpus(seed, count, GenConfig(loop_density=0))
    ]


def daemon_blocks(seed: int) -> list[list[Arrival]]:
    """The daemon's arrivals: :data:`DAEMON_BLOCKS` blocks of 20, in order.

    A block repeats each of the 14 decidable suite programs once
    (pre-banked, so warm) and adds :data:`DAEMON_FRESH_PER_BLOCK` fresh
    loop-free programs generated from ``seed``.  The counts are fixed; the
    order of the arrivals and which of them are bursts derive from ``seed``.
    """
    pattern = random.Random(seed)
    suite = [item for item in suite_inputs() if item.name not in UNDECIDED_SUITE]
    fresh = generated_inputs(seed + 1_000_000, DAEMON_FRESH_PER_BLOCK * DAEMON_BLOCKS)
    blocks = []
    for block in range(DAEMON_BLOCKS):
        new = fresh[block * DAEMON_FRESH_PER_BLOCK : (block + 1) * DAEMON_FRESH_PER_BLOCK]
        bursts = {
            *pattern.sample(range(len(suite)), DAEMON_BURSTS_ON_REPEATS),
            *(len(suite) + i for i in pattern.sample(range(len(new)), DAEMON_BURSTS_ON_FRESH)),
        }
        arrivals = [
            Arrival(item, DAEMON_BURST_SIZE if index in bursts else 1)
            for index, item in enumerate([*suite, *new])
        ]
        pattern.shuffle(arrivals)
        blocks.append(arrivals)
    return blocks


def build(workload: str, seed: int, scale: float = 1.0) -> Inputs:
    """The inputs of ``workload``; ``scale`` < 1 shrinks them (self-test only)."""
    if workload == "suite":
        programs = suite_inputs()
        if scale < 1.0:
            programs = [item for item in programs if item.name not in UNDECIDED_SUITE]
            programs = programs[: max(2, int(len(programs) * scale))]
        return Inputs(programs)
    if workload == "loopfree":
        size = max(3, int(LOOPFREE_PROGRAMS * scale))
        return Inputs(generated_inputs(seed, size * LOOPFREE_SLICES), pass_size=size)
    if workload == "cli":
        size = max(3, int(CLI_FILES * scale))
        return Inputs(generated_inputs(seed, size * CLI_SLICES), pass_size=size)
    if workload == "daemon":
        blocks = daemon_blocks(seed)
        if scale < 1.0:
            blocks = [block[: max(2, int(len(block) * scale))] for block in blocks[:2]]
        return Inputs([a.input for block in blocks for a in block], [a for block in blocks for a in block], len(blocks[0]))
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: Inputs) -> str:
    """A short hash of every input (and the daemon schedule), in order."""
    sha = hashlib.sha256()
    for item in inputs.programs:
        sha.update(f"{item.name}|{item.expected}|{item.planted}|".encode())
        sha.update(item.source.encode())
    for arrival in inputs.schedule:
        sha.update(f"|{arrival.input.name}|{arrival.copies}".encode())
    return sha.hexdigest()[:16]
