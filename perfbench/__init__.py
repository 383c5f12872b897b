"""Repo benchmark package: see run.py."""
