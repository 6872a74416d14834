"""Minimal offline stand-in for the PyPA ``wheel`` package.

The reproduction container has no network and no ``wheel`` distribution,
but setuptools' PEP-660 editable build (``pip install -e .``) needs two
pieces of it: the ``bdist_wheel`` distutils command (only ``get_tag`` and
``write_wheelfile`` are exercised on the editable path) and
``wheel.wheelfile.WheelFile`` (zip + RECORD writing). This shim provides
exactly that surface for pure-Python projects. It is a fallback for when no
real ``wheel`` distribution is at hand; README's "Offline-container notes"
say how the editable install finds ``setuptools`` and ``wheel`` offline.
"""
__version__ = "0.0.0+repro-shim"
