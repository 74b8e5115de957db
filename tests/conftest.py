"""Test-session setup shared by every module.

``pyproject.toml`` puts ``src/`` on pytest's own import path; the CLI tests
also start ``python -m fusioncat`` in child processes, which see only the
environment, so ``src/`` is added to their ``PYTHONPATH`` as well.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
