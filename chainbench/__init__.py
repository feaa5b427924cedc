"""Closed-loop benchmark of both chain planes; run it with ``chainbench/run.py``."""
