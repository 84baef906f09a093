"""Repo benchmark package (see README.md)."""
