"""Seeded benchmark inputs: the ladder and explore algebras, built in code.

Each algebra is given in its natural basis and then written with its basis
permuted by a permutation drawn from the seed. A permutation is a change of
basis, so every dimension and verdict the CLI reports is the same for every
seed, while the systems the CLI solves are assembled in a different order.
"""

from __future__ import annotations

import random
from pathlib import Path

from liegraph.algebra import LieAlgebra, make_lie_algebra
from liegraph.catalog import serialize_algebra


def _sl2_pair() -> tuple[list[str], dict]:
    names = ["h1", "e1", "f1", "h2", "e2", "f2"]
    brackets = {}
    for o in (0, 3):  # [h,e]=2e, [h,f]=-2f, [e,f]=h in each factor
        brackets[(o, o + 1)] = {o + 1: 2}
        brackets[(o, o + 2)] = {o + 2: -2}
        brackets[(o + 1, o + 2)] = {o: 1}
    return names, brackets


def _heisenberg(k: int) -> tuple[list[str], dict]:
    """[x_i, y_i] = z for i = 1..k; basis x1, y1, ..., xk, yk, z."""
    names = [f"{c}{i + 1}" for i in range(k) for c in "xy"] + ["z"]
    return names, {(2 * i, 2 * i + 1): {2 * k: 1} for i in range(k)}


def _filiform(n: int) -> tuple[list[str], dict]:
    """[e1, ei] = e(i+1) for 2 <= i < n."""
    names = [f"e{i + 1}" for i in range(n)]
    return names, {(0, i): {i + 1: 1} for i in range(1, n - 1)}


def _diagonal(n: int) -> tuple[list[str], dict]:
    """[e1, ei] = (i-1) ei for 2 <= i <= n."""
    names = [f"e{i + 1}" for i in range(n)]
    return names, {(0, i): {i: i} for i in range(1, n)}


# name -> natural-basis presentation (basis names, {(i, j): {k: coeff}})
SPECS = {
    "abelian4": lambda: ([f"e{i + 1}" for i in range(4)], {}),
    "heisenberg5": lambda: _heisenberg(2),
    "sl2_sum_sl2": _sl2_pair,
    "filiform8": lambda: _filiform(8),
    "diagonal8": lambda: _diagonal(8),
    "heisenberg7": lambda: _heisenberg(3),
}

LADDER = ("abelian4", "heisenberg5", "sl2_sum_sl2")
EXPLORE = ("filiform8", "diagonal8", "heisenberg7")


def permutation(seed: int, name: str, n: int) -> list[int]:
    """perm[i] is the position of natural basis element i in the file."""
    perm = list(range(n))
    random.Random(f"{seed}:{name}").shuffle(perm)
    return perm


def build(name: str, seed: int) -> LieAlgebra:
    """The algebra `name` with its basis permuted by the seed."""
    names, brackets = SPECS[name]()
    n = len(names)
    perm = permutation(seed, name, n)
    new_names = [""] * n
    for i, s in enumerate(names):
        new_names[perm[i]] = s
    entries = []
    for (i, j), result in brackets.items():
        vec = [0] * n
        for k, c in result.items():
            vec[perm[k]] = c
        entries.append((perm[i], perm[j], vec))
    return make_lie_algebra(n, entries, new_names)


def write_inputs(names, seed: int, directory: Path) -> None:
    """Write `<name>.json` for each algebra into `directory`."""
    for name in names:
        (directory / f"{name}.json").write_text(serialize_algebra(build(name, seed)))
