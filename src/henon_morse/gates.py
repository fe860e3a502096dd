"""Limits of the certificates that solve, sweep, verify, liouville and morse_index check.

Each gate is defined here and only here.  ``halfline.certify`` alone compares
against RESIDUAL_GATE, TRANSFORMED_GATE, POHOZAEV_GATE and IDENTITY_GATE, for
solve, sweep and verify; RESIDUAL_GATE is also read by ``require_certified``
before every Morse count and by the mu > 0 shooting fallback, in ``radial_bvp``.
MAP_GATE bounds ``verify``'s map check of a stored mu = 0 profile against its
stored image: above the cubic interpolant's own error on certified images
(at most 7e-8 on grids of 1000 to 8000 points), below the 1e-6 A/(1 + A)
that a relative change of 1e-6 in u reads.  ``verify``'s stable-sector check
compares two exact inertia counts and has no gate.
"""

RESIDUAL_GATE = 1e-5          # relative ODE defect of a certified radial profile
TRANSFORMED_GATE = 1e-3       # half-line defect of the Hermite-interpolated profile
POHOZAEV_GATE = 1e-6          # relative slack tolerance
IDENTITY_GATE = 1e-5          # integral identity mismatch
MAP_GATE = 2e-7               # stored r-samples against their (M, 0) image's interpolant, relative
WITNESS_GATE = 1e-8           # quadrature recheck of a window witness, relative to 1 + |q_min|
