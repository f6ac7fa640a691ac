"""Seeded benchmark inputs, rendered to the text the program reads.

Every workload turns a seed into a list of instances.  An instance holds a
circuit in the line format of ``render_circuit`` and its power curves as a
JSON document, so the benchmark feeds the program through the same input
path as the command line.  The same seed always gives the same text.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_CURVE = json.dumps({"default": [[0, 100], [10, 60], [20, 30], [33, 10]]})
BATCH_SIZES = (6, 8, 10, 14, 20, 30)  # the `retislack bench --gen` cycle
ORACLE_MAX_GATES = 10  # instances this small are compared with brute_force


@dataclass(frozen=True)
class Instance:
    name: str
    circuit_text: str
    curves_text: str


@dataclass(frozen=True)
class Workload:
    name: str
    check: bool                     # run_pipeline(check=...)
    period_factor: Fraction | None  # T = ceil(factor * Tmin); None: T = Tmin
    instances: tuple[Instance, ...]


def mixed_curve(rng: random.Random) -> list[list[int]]:
    """A valid curve of 1 to 7 levels with integer slopes (1/7 single-level)."""
    levels = rng.randint(1, 7)
    slacks = [0]
    for _ in range(levels - 1):
        slacks.append(slacks[-1] + rng.randint(1, 8))
    slopes = sorted((rng.randint(1, 12) for _ in range(levels - 1)), reverse=True)
    power = rng.randint(1, 20) + sum(
        b * (slacks[q + 1] - slacks[q]) for q, b in enumerate(slopes))
    pairs = [[0, power]]
    for q, b in enumerate(slopes):
        power -= b * (slacks[q + 1] - slacks[q])
        pairs.append([slacks[q + 1], power])
    return pairs


def _random_text(rs, n: int, density: float, seed: int) -> str:
    c = rs.generate_random(n, edge_density=density, ff_prob=0.4, seed=seed)
    return rs.render_circuit(c)


def _mixed_curves_text(circuit_text: str, rng: random.Random) -> str:
    """One mixed_curve per gate of the circuit, as a curve JSON document."""
    names = [line.split()[1] for line in circuit_text.splitlines()
             if line.startswith("gate ")]
    return json.dumps({name: mixed_curve(rng) for name in names})


def tight_650(rs, seed: int) -> Workload:
    """ROADMAP scale point; instance 0 is generate_random(650, seed=seed).

    Six circuits rather than one, so that a run's time and power do not hinge
    on a single circuit's repair count.
    """
    insts = []
    for k in range(6):
        sub = seed if k == 0 else seed * 1000 + k
        insts.append(Instance(f"tight650-s{sub}", _random_text(rs, 650, 2.2, sub),
                              DEFAULT_CURVE))
    return Workload("tight_650", False, None, tuple(insts))


def batch_small(rs, seed: int) -> Workload:
    """600 tiny circuits: fixed per-call cost dominates, and the ones with at
    most ORACLE_MAX_GATES gates are checked against brute_force."""
    insts = []
    for i in range(600):
        n = BATCH_SIZES[i % len(BATCH_SIZES)]
        text = _random_text(rs, n, 1.8, seed * 10007 + i)
        insts.append(Instance(f"case{i:03d}-n{n}", text, DEFAULT_CURVE))
    return Workload("batch_small", False, None, tuple(insts))


def check_mixed(rs, seed: int) -> Workload:
    """Mixed 1-7 level curves at a loose period with check=True, where
    ssp_oracle dominates; 16 circuits of 150 gates so power does not hinge
    on one."""
    insts = []
    for k in range(16):
        sub = seed * 1000 + k
        text = _random_text(rs, 150, 2.2, sub)
        insts.append(Instance(f"mixed{k}-s{sub}", text,
                              _mixed_curves_text(text, random.Random(sub))))
    return Workload("check_mixed", True, Fraction(13, 10), tuple(insts))


def smoke(rs, seed: int) -> Workload:
    """Few-gate instances that reach every stage, oracle and metric."""
    insts = [Instance(f"smoke-n{n}", _random_text(rs, n, 1.8, seed * 31 + n),
                      DEFAULT_CURVE) for n in (6, 8)]
    text = _random_text(rs, 10, 1.8, seed * 31 + 10)
    insts.append(Instance("smoke-mixed", text,
                          _mixed_curves_text(text, random.Random(seed))))
    return Workload("smoke", True, Fraction(13, 10), tuple(insts))


WORKLOADS = {f.__name__: f for f in (tight_650, batch_small, check_mixed, smoke)}
