"""Imaging of thin curve-like penetrable inclusions in the unit disk.

The package synthesizes boundary scattering data for inclusions supported in
a thin tubular neighborhood of a curve, images the supporting curve with
single- and multi-frequency topological-derivative maps (plus MUSIC and
Kirchhoff baselines), and extracts a Chebyshev-parameterized initial guess
with discrepancy norms against the data.
"""
