"""Instance files and seeded random generators.

An instance is JSON text:

    {"n": int,
     "function": {"family": str, ...params, "seed": int?},
     "direction": [int, ...],
     "x0": [int, ...]?}

Explicit tables list all 2^n values in subset-mask order (mask value =
index).  Generators are deterministic in the seed and the seed is kept in
the file as provenance, but the written parameters are authoritative: parse
-> serialize -> parse is the identity.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInstance
from .oracles import (ConcaveCardinalityPlusModular, DirectedGraphCut,
                      Direction, ExplicitTable, FamilySpec, IntervalGeometric,
                      SubmodularOracle, WeightedCoverage, make_family,
                      translate)

FAMILIES = ("explicit", "coverage", "digraph-cut", "concave-modular",
            "interval-geometric")


@dataclass(frozen=True)
class Instance:
    n: int
    spec: FamilySpec
    direction: tuple[int, ...]
    x0: tuple[int, ...] | None = None
    seed: int | None = None

    def build(self) -> tuple[SubmodularOracle, Direction]:
        """Validated oracle and direction; every size must equal n."""
        oracle = make_family(self.spec)
        sizes = [("function", oracle.n), ("direction", len(self.direction))]
        if self.x0 is not None:
            sizes.append(("x0", len(self.x0)))
        for what, size in sizes:
            if size != self.n:
                raise InvalidInstance(
                    f"n = {self.n} but the {what} has {size} elements")
        if self.x0 is not None:
            oracle = translate(oracle, self.x0)
        return oracle, Direction(self.direction)


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


# ---------------------------------------------------------------------------
# JSON round trip


def spec_to_json(spec: FamilySpec) -> dict:
    if isinstance(spec, ExplicitTable):
        return {"family": spec.family, "values": list(spec.values)}
    if isinstance(spec, WeightedCoverage):
        return {"family": spec.family, "n": spec.n, "universe": spec.universe,
                "sets": [list(s) for s in spec.sets],
                "weights": list(spec.weights)}
    if isinstance(spec, DirectedGraphCut):
        return {"family": spec.family, "n": spec.n,
                "arcs": [list(a) for a in spec.arcs]}
    if isinstance(spec, ConcaveCardinalityPlusModular):
        return {"family": spec.family, "concave": list(spec.concave),
                "modular": list(spec.modular)}
    if isinstance(spec, IntervalGeometric):
        return {"family": spec.family, "n": spec.n}
    raise ValueError(f"unknown spec {spec!r}")


def _int(v) -> int:
    """A JSON integer as is; floats, strings and booleans are input errors."""
    if type(v) is not int:
        raise InvalidInstance(f"expected a JSON integer, got {v!r}")
    return v


def spec_from_json(obj: dict) -> FamilySpec:
    family = obj.get("family")
    if family == "explicit":
        return ExplicitTable(tuple(_int(v) for v in obj["values"]))
    if family == "coverage":
        return WeightedCoverage(_int(obj["n"]), _int(obj["universe"]),
                                tuple(tuple(_int(u) for u in s) for s in obj["sets"]),
                                tuple(_int(w) for w in obj["weights"]))
    if family == "digraph-cut":
        return DirectedGraphCut(_int(obj["n"]),
                                tuple(tuple(_int(v) for v in a) for a in obj["arcs"]))
    if family == "concave-modular":
        return ConcaveCardinalityPlusModular(
            tuple(_int(v) for v in obj["concave"]),
            tuple(_int(v) for v in obj["modular"]))
    if family == "interval-geometric":
        return IntervalGeometric(_int(obj["n"]))
    raise ValueError(f"unknown family {family!r}")


def instance_to_json(inst: Instance) -> str:
    fn = spec_to_json(inst.spec)
    if inst.seed is not None:
        fn["seed"] = inst.seed
    obj = {"n": inst.n, "function": fn, "direction": list(inst.direction)}
    if inst.x0 is not None:
        obj["x0"] = list(inst.x0)
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def instance_from_json(text: str) -> Instance:
    obj = json.loads(text)
    fn = dict(obj["function"])
    seed = fn.pop("seed", None)
    spec = spec_from_json(fn)
    x0 = obj.get("x0")
    return Instance(n=_int(obj["n"]), spec=spec,
                    direction=tuple(_int(v) for v in obj["direction"]),
                    x0=tuple(_int(v) for v in x0) if x0 is not None else None,
                    seed=seed)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def dump_instance(inst: Instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))


# ---------------------------------------------------------------------------
# Seeded random generation


def random_direction(n: int, rng: random.Random) -> tuple[int, ...]:
    d = [rng.randint(-9, 9) for _ in range(n)]
    if not any(v > 0 for v in d):
        d[rng.randrange(n)] = rng.randint(1, 9)
    return tuple(d)


def _random_coverage(n: int, rng: random.Random) -> WeightedCoverage:
    universe = rng.randint(max(2, n // 2), 2 * n + 2)
    sets = tuple(tuple(sorted(rng.sample(range(universe),
                                         rng.randint(0, min(3, universe)))))
                 for _ in range(n))
    weights = tuple(rng.randint(0, 9) for _ in range(universe))
    return WeightedCoverage(n, universe, sets, weights)


def _random_digraph(n: int, rng: random.Random) -> DirectedGraphCut:
    caps: dict[tuple[int, int], int] = {}
    if n >= 2:
        for _ in range(rng.randint(n, 3 * n)):
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            caps[(u, v)] = caps.get((u, v), 0) + rng.randint(1, 9)
    arcs = tuple((u, v, c) for (u, v), c in sorted(caps.items()))
    return DirectedGraphCut(n, arcs)


def _random_concave_modular(n, rng) -> ConcaveCardinalityPlusModular:
    incs = sorted((rng.randint(0, 8) for _ in range(n)), reverse=True)
    g = [0]
    for inc in incs:
        g.append(g[-1] + inc)
    # clip the modular part so f stays nonnegative: by concavity g(k) >= k g(n)/n,
    # so entries >= -floor(g(n)/n) suffice
    floor = -(g[n] // n) if n else 0
    modular = tuple(max(rng.randint(-4, 8), floor) for _ in range(n))
    return ConcaveCardinalityPlusModular(tuple(g), modular)


def random_spec(family: str, n: int, rng: random.Random) -> FamilySpec:
    if family == "coverage":
        return _random_coverage(n, rng)
    if family == "digraph-cut":
        return _random_digraph(n, rng)
    if family == "concave-modular":
        return _random_concave_modular(n, rng)
    if family == "interval-geometric":
        return IntervalGeometric(n)
    if family == "explicit":
        inner = random_spec(rng.choice(("coverage", "digraph-cut",
                                        "concave-modular")), n, rng)
        table = make_family(inner).dense_table()
        return ExplicitTable(tuple(table))
    raise ValueError(f"unknown family {family!r}")


def random_instance(family: str, n: int, seed: int) -> Instance:
    rng = random.Random(seed)
    spec = random_spec(family, n, rng)
    return Instance(n=n, spec=spec, direction=random_direction(n, rng),
                    seed=seed)


def generate(family: str, n: int, seed: int) -> Instance:
    """Deterministic instance for `gen`; interval-geometric uses the canonical
    hard direction (D, 3D-1, 1, ..., 1) with D = 100."""
    if family == "interval-geometric":
        big = 100
        direction = (big, 3 * big - 1) + (1,) * (n - 2) if n >= 2 else (big,)
        return Instance(n=n, spec=IntervalGeometric(n), direction=direction,
                        seed=seed)
    return random_instance(family, n, seed)
