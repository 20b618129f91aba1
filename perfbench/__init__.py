"""The repo benchmark (see README.md); entry point ``perfbench/run.py``."""
