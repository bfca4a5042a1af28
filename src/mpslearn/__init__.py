"""Learning matrix product states through log-depth disentangling circuits.

The package simulates a tomography-driven learner: a halving schedule of
block-local unitaries rotates a chain state so that half the register lands
in |0> at every layer, until only a short tail survives.  Inverting the
recorded unitaries yields a state-preparation circuit.  Alongside the learner
live the schedule planner, the block-size solver, tomography oracles, copy
budget formulas, and runnable property suites for the structural guarantees.
Each lives in its own module, and ``import mpslearn`` binds none of their
names: import the modules (``from mpslearn import learner, mps, tomography``).
"""

__version__ = "0.1.0"
