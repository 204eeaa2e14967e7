"""Monte Carlo on the extended processes.

Grid chains discretize one interval at a time: jump probabilities come
from scale ratios, holding times from the Green kernel, and walls from
infinite scale values.  The embedded chain is exactly scale-harmonic,
so hitting probabilities match the continuous answer on any grid, and
the uniform grid of ``snap_grid`` serves every window.
"""

import numpy as np

from bmext import (
    build_chain,
    darn,
    hitting_probability,
    preset,
    simulate_darned,
    simulate_path,
    snap_grid,
)

SEED = 20260814

# Brownian motion started at 1/3 hits 0 before 1 with probability 2/3;
# the singular block of ex215 bends the scale so the same start hits 0
# first with probability 7/12 instead, on 48 equal cells as on any others.
cfg = preset("ex215")
grid = snap_grid(0.0, 1.0, 48)
est = hitting_probability(build_chain(cfg, 0, grid), 1 / 3, 0.0, 1.0, 40_000, seed=SEED)
print("P(hit 0 before 1 | start 1/3)")
print(f"  ex215:    {est.estimate:.4f} +- {est.std_error:.4f}   (exact 7/12 = {7 / 12:.4f})")
print(f"  brownian: exact 2/3 for reference")

# Walls and traps.  ex216 pins the origin: the right ray's chain gives
# probability one of stepping away from 0+, and a walk started there
# never crosses.
cfg = preset("ex216")
sites = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
chain = build_chain(cfg, 1, sites)
print("\nex216 right ray, chain on five sites")
print(f"  absorbing at 0: {bool(chain.absorbing[0])}   p_right from site 1: {chain.p_right[1]}")
walk = simulate_path(chain, 0.75, budget=2_000, seed=SEED)
print(f"  walk from 0.75: min visited site {walk.sites.min()}, {walk.steps} steps")

# Confinement on ex218: a walk inside the central gap [1/3, 2/3] stays
# there for its entire budget because both gap endpoints have infinite
# scale on the outside.
cfg = preset("ex218", depth=4)
idx = cfg.locate(0.5)
grid = np.linspace(1 / 3, 2 / 3, 9)
chain = build_chain(cfg, idx, grid)
walk = simulate_path(chain, 0.5, budget=50_000, seed=SEED)
print("\nex218 central gap")
print(f"  exhausted budget: {walk.exhausted}   range visited: [{walk.sites.min():.4f}, {walk.sites.max():.4f}]")

# A walk on the darned image of ex215: occupation follows the atom
# masses, heaviest at the collapsed middle gap.
cfg = preset("ex215")
spec = darn(cfg, 0, depth=6)
sites = np.array(sorted(loc for loc, _ in spec.atoms))
run = simulate_darned(spec, sites, 0.5, 50_000, seed=SEED)
top = np.argsort(run.occupation)[::-1][:3]
print("\ndarned walk, heaviest occupation")
for i in top:
    print(f"  site {sites[i]:<8} occupation {run.occupation[i]:.4f}   atom mass {float(spec.atom_mass(sites[i])):.4f}")
