"""Workload definitions: config generators for the greedy-ou CLI.

Each workload turns a seed and a command index k into one JSON config; the
program sees only that config.  Why each workload exists is recorded in
BENCHMARK.json.  Command k of a run uses its own config, so
a run's median covers several seeded problems of the same shape and sizes,
not one problem timed repeatedly.  The smoke variants keep every code path
of their workload at a size that runs in well under a second.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

SOLVE = "solve"
SPECTRUM = "spectrum"

# coefficients of the rank-3 manufactured target; their sum is the envelope constant
TARGET_COEFFS = [0.8, 0.5, 0.3]

# one ALS start per greedy iteration keeps a command near a second, so a run's
# median covers a few dozen seeded problems; the smoke configs take two starts
# to keep the restart path covered
ALS_RESTARTS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # SOLVE runs `solve`; SPECTRUM runs `eig` then `regularity`
    n_factors: int
    factors: tuple
    n_el: int
    algorithm: str = "pga"
    n_max: int = 0
    eig_k: int = 0
    box: tuple = ()
    n_terms: int = 0  # eigen-target terms, spectrum only
    # host-speed kernels (hostspeed.py) that match the workload's own work
    host_kernels: tuple = ("python",)


_FENE = {"kind": "fene", "b": 4.0}
_CPAIL = {"kind": "cpail", "b": 6.0}

WORKLOADS = {
    w.name: w for w in (
        Workload("pga-n2", SOLVE, 2, (_FENE, _CPAIL), n_el=40, algorithm="pga", n_max=30),
        Workload("oga-n3", SOLVE, 3, (_FENE,), n_el=20, algorithm="oga", n_max=20),
        Workload("pga-fine", SOLVE, 2, (_FENE, _CPAIL), n_el=160, algorithm="pga", n_max=10,
                 host_kernels=("python", "dense")),
        Workload("spectrum-fine", SPECTRUM, 2, (_FENE, _CPAIL), n_el=320,
                 eig_k=40, box=(20, 20), n_terms=4, host_kernels=("dense",)),
    )
}

# same paths at a few elements and iterations
_SMOKE = {"n_el": {SOLVE: 6, SPECTRUM: 8}, "n_max": 3, "restarts": 2,
          "eig_k": 8, "box": (3, 3), "n_terms": 2}


def _subseed(*parts) -> int:
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def config_for(workload: Workload, seed: int, k: int, smoke: bool = False) -> dict:
    """Config of command k in a run with the given workload seed."""
    raw = {
        "schema_version": 1,
        "n_factors": workload.n_factors,
        "factors": [dict(f) for f in workload.factors],
        "coupling": {"kind": "rouse", "off_diag": -0.5},
        "wi": 1.0,
        "c": 1.0,
        "mesh": {"n_el": _SMOKE["n_el"][workload.kind] if smoke else workload.n_el,
                 "grading": 1.0, "degree": 2},
    }
    if workload.kind == SOLVE:
        raw.update({
            "algorithm": workload.algorithm,
            "tol_stop": 1e-12,
            "n_max": _SMOKE["n_max"] if smoke else workload.n_max,
            "als": {"tol": 1e-10, "max_sweeps": 60,
                    "restarts": _SMOKE["restarts"] if smoke else ALS_RESTARTS,
                    "seed": _subseed(workload.name, seed, k, "als")},
            "target": {"kind": "manufactured", "coefficients": list(TARGET_COEFFS),
                       "seed": _subseed(workload.name, seed, k, "target")},
        })
        return raw
    box = _SMOKE["box"] if smoke else workload.box
    n_terms = _SMOKE["n_terms"] if smoke else workload.n_terms
    rng = random.Random(_subseed(workload.name, seed, k, "eigen"))
    grid = [(i, j) for i in range(1, box[0] + 1) for j in range(1, box[1] + 1)]
    terms = []
    for index in rng.sample(grid, n_terms):
        weight = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
        terms.append({"weight": weight, "index": list(index)})
    raw.update({
        "target": {"kind": "eigen", "terms": terms},
        "eig": {"k": _SMOKE["eig_k"] if smoke else workload.eig_k},
        "box": list(box),
    })
    return raw


def config_hash(raw: dict) -> str:
    """sha256 of the canonical config JSON, the same digest the program records."""
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
