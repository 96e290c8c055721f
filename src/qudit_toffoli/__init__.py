"""Qudit-assisted Toffoli-sign constructions and their optical realizations.

Three layers: a mixed-radix register engine (`qudits`), the qutrit/qudit
circuit constructions with 2n-1 two-qudit gates (`toffoli`), and a Fock-space
simulator for the optical versions (`fock`, `optical`) including the heralded
1/32 gate and the post-selected chained-interferometer gate whose
reflectivities are recovered numerically at success probability 1/72.
Every name is imported from its module, e.g.
`from qudit_toffoli.toffoli import verify_decomposition`, so `qudits`,
`toffoli` and `fock` load numpy only and scipy loads with `optical`.
"""

__version__ = "0.1.0"
