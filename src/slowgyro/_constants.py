"""Physical constants (SI, CODATA 2022), the single source for the package.

The exact SI-defining values are written as such; hbar is derived from the
exact Planck constant rather than rounded, and epsilon_0 is the CODATA 2022
measured value.  Pinning them here keeps every result independent of the
installed versions of other libraries.
"""

import math

c = 299792458.0                      # speed of light, m/s (exact)
h = 6.62607015e-34                   # Planck constant, J s (exact)
hbar = h / (2 * math.pi)             # reduced Planck constant, J s
k_B = 1.380649e-23                   # Boltzmann constant, J/K (exact)
epsilon_0 = 8.8541878188e-12         # vacuum permittivity, F/m (CODATA 2022)
