"""Setup shim: ``pip install -e .`` uses pyproject.toml metadata; this
file lets ``python setup.py develop`` work where the ``wheel`` package
is absent.
"""

from setuptools import setup

setup()
