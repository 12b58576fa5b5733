"""Diffusion-enhanced embedded topic modeling toolchain.

Importing the package loads none of its modules, so ``diffetm.synth``
loads numpy alone.
"""

__version__ = "0.1.0"
