"""Workload definitions: the fixed op list of each workload.

An op is one ``python -m bopcalc ...`` process.  Every op prints JSON
(``--format json``) so the output gate can digest it.  A deep op carries
a small set of ``-N`` values around its nominal scale; the run's seed
picks one value per op, and ``references.json`` holds a stored reference
for every value in the set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

N_1024 = (1016, 1024, 1032)
N_2048 = (2032, 2048, 2064)


@dataclass(frozen=True)
class Op:
    name: str
    args: Tuple[str, ...]
    n_values: Tuple[int, ...] = ()
    # The smoke op is judged by a pass criterion instead of a stored
    # reference, and is left out of wall_s and cpu_s.
    smoke: bool = False

    def argv(self, n: Optional[int]) -> List[str]:
        tail = ["-N", str(n)] if n is not None else []
        return list(self.args) + tail + ["--format", "json"]


WORKLOADS: Dict[str, Tuple[Op, ...]] = {
    # The CI-style battery: every check at its pinned scale, plus the
    # smoke pass the README promises for a tiny -N.
    "battery": (
        Op("verify-all", ("verify", "all")),
        Op("smoke", ("verify", "all", "-N", "2"), smoke=True),
    ),
    # towers/algebra path: few calls, dense products, big coefficients.
    "tower-deep": (
        Op("homology-BoP-12", ("homology", "BoP", "12"), N_1024),
        Op("negative-tower", ("verify", "negative-tower"), N_1024),
        Op("bop-tower", ("verify", "bop-tower"), N_1024),
        Op("negative-tower-fault",
           ("verify", "negative-tower", "--inject-fault"), N_1024),
    ),
    # conjecture/splitting path: thousands of sparse binomial products.
    "identity-deep": (
        Op("conjecture-shape", ("verify", "conjecture-shape"), N_1024),
        Op("conjecture-16", ("conjecture", "16"), N_1024),
        Op("rhs-one", ("verify", "rhs-one"), N_2048),
        Op("rational-splitting", ("verify", "rational-splitting"), N_2048),
        Op("rhs-one-fault", ("verify", "rhs-one", "--inject-fault"), N_2048),
    ),
}


def draw(workload: str, seed: int):
    """The seed's choice of -N for each op, and its order generator.

    Returns ``(plan, rng)``: ``plan`` is a list of ``(op, n)`` in the
    workload's fixed order, and ``rng`` shuffles each pass.
    """
    rng = random.Random(f"{workload}:{seed}")
    plan = [(op, rng.choice(op.n_values) if op.n_values else None)
            for op in WORKLOADS[workload]]
    return plan, rng


def reference_key(argv: List[str]) -> str:
    return " ".join(argv)
