"""Write one input of the CI steps as a JSON document on stdout.

    python3 tests/ci_inputs.py NAME > input.json

Set systems (``--system``):
  power8              the power set of 8 players
  nopair8, nopair12,  the power set of 8, 12 or 15 players without {1, 2}
  nopair15
  power16             48 random 16-player sets (random.Random(16)) whose
                      closure is the power set
  sparse16            43 random sets between ∅ and N (random.Random("big/16/1"))
  lift12              the 148 downsets of the 12-player order LIFT12_ORDER
                      without the 8 sets of LIFT12_DROPPED: the sets of its
                      named collections that are not principal downsets

Posets (``--poset``):
  antichain16         16 players, no relations
  chain16             the chain 1 < 2 < ... < 16

Games (``--game``), each worth drawn in mask order over the nonempty sets:
  open6, open8        v(S) = |S|² + b(S)·|S| on the 6- or 8-player power set
                      without {1, 2}, b(S) ∈ {0, 1} drawn by random.Random(1)
  bonus7, bonus8      the same worths on the 7- or 8-player power set
  triple10, triple12  v(S) = |S|² + r(S)·|S| on the 10- or 12-player power
                      set, r(S) ∈ {0, 1, 2} drawn by random.Random(1)
  square7             v(S) = |S|² on the 7-player power set
  additive12          v(S) = |S| on the 12-player power set
  lift12zero          v(S) = 0 on lift12
"""

import json
import random
import sys


def players(m: int, n: int) -> list[int]:
    return [p for p in range(1, n + 1) if m >> (p - 1) & 1]


def system(n: int, masks) -> dict:
    return {"n": n, "sets": [players(m, n) for m in masks]}


def game(n: int, masks: list[int], worth) -> dict:
    'the game of ``worth(m)`` on the system of ``masks`` (∅ first), called in mask order'
    values = {",".join(map(str, players(m, n))): worth(m) for m in masks[1:]}
    return {"system": system(n, masks), "values": values}


def power(n: int) -> list[int]:
    return list(range(1 << n))


def nopair(n: int) -> list[int]:
    return [m for m in range(1 << n) if m != 3]


def drawn(seed, low: int, high: int):
    'v(S) = |S|² + d(S)·|S| with d(S) drawn from low..high by random.Random(seed)'
    draw = random.Random(seed)
    return lambda m: m.bit_count() ** 2 + draw.randint(low, high) * m.bit_count()


# the 9-player hierarchy of tests/helpers.py, with players 10-12 above it
LIFT12_ORDER = [
    [1, 4], [1, 5], [1, 9], [2, 7], [3, 6], [4, 7], [5, 7], [6, 7], [6, 8],
    [9, 10], [8, 11], [10, 12], [11, 12],
]
LIFT12_DROPPED = [
    [1, 2, 3], [1, 3, 4, 5, 6, 9], [1, 3, 6, 8, 9, 10], [1, 2, 3, 4, 5, 6, 9],
    [1, 2, 3, 4, 5, 6, 8, 9, 10], [1, 2, 3, 4, 5, 6, 8, 9, 10, 11],
    list(range(1, 11)), list(range(1, 12)),
]


def lift12() -> list[int]:
    'the downsets of LIFT12_ORDER, in mask order, without the sets of LIFT12_DROPPED'
    dropped = {sum(1 << (p - 1) for p in players) for players in LIFT12_DROPPED}
    return [
        m
        for m in range(1 << 12)
        if all(m >> (i - 1) & 1 or not m >> (j - 1) & 1 for i, j in LIFT12_ORDER) and m not in dropped
    ]


def power16() -> dict:
    draw = random.Random(16)
    inner = {draw.getrandbits(16) for _ in range(48)} - {0, 65535}
    return system(16, [0, *sorted(inner), 65535])


def sparse16() -> dict:
    draw = random.Random("big/16/1")
    masks = {0, 65535}
    while len(masks) < 45:
        masks.add(draw.randrange(1, 65535))
    return system(16, sorted(masks))


INPUTS = {
    "power8": lambda: system(8, power(8)),
    "nopair8": lambda: system(8, nopair(8)),
    "nopair12": lambda: system(12, nopair(12)),
    "nopair15": lambda: system(15, nopair(15)),
    "power16": power16,
    "sparse16": sparse16,
    "lift12": lambda: system(12, lift12()),
    "antichain16": lambda: {"n": 16, "relations": []},
    "chain16": lambda: {"n": 16, "relations": [[p, p + 1] for p in range(1, 16)]},
    "open6": lambda: game(6, nopair(6), drawn(1, 0, 1)),
    "open8": lambda: game(8, nopair(8), drawn(1, 0, 1)),
    "bonus7": lambda: game(7, power(7), drawn(1, 0, 1)),
    "bonus8": lambda: game(8, power(8), drawn(1, 0, 1)),
    "triple10": lambda: game(10, power(10), drawn(1, 0, 2)),
    "triple12": lambda: game(12, power(12), drawn(1, 0, 2)),
    "square7": lambda: game(7, power(7), lambda m: m.bit_count() ** 2),
    "additive12": lambda: game(12, power(12), int.bit_count),
    "lift12zero": lambda: game(12, lift12(), lambda m: 0),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in INPUTS:
        print(f"usage: ci_inputs.py NAME, NAME one of {', '.join(INPUTS)}", file=sys.stderr)
        return 2
    print(json.dumps(INPUTS[argv[0]]()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
