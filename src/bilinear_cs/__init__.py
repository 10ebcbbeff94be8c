"""Compressed sensing on the image of sparse bilinear maps.

Library + experiment CLI for studying how well random sub-Gaussian
projections preserve norms on output sets of bilinear couplings
(pointwise products, circular convolutions, unitary-conjugated products)
restricted to sparse inputs, and how many measurements recovery needs.
"""

__version__ = "0.1.0"
