"""The SI constants magcp uses: CODATA 2022, the values scipy.constants
gives from scipy 1.15 on.

They are written out rather than imported from scipy.constants, whose
import loads about 19 MB of scipy's array-API support that nothing else
in magcp needs.
"""

import math

c = 299792458.0                    # speed of light, m/s (exact)
h = 6.62607015e-34                 # Planck constant, J s (exact)
hbar = h / (2 * math.pi)
e = 1.602176634e-19                # elementary charge, C (exact)
epsilon_0 = 8.8541878188e-12       # vacuum permittivity, F/m
mu_0 = 1.0 / (epsilon_0 * c**2)    # vacuum permeability, H/m
fine_structure = 7.2973525643e-3
bohr_radius = 5.29177210544e-11    # m
atomic_mass = 1.66053906892e-27    # atomic mass constant, kg
