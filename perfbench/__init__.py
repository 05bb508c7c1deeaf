"""End-to-end and per-layer benchmark of entkit; run ``python3 perfbench/run.py --help``."""
