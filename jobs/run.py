"""Regenerate one exhibit of the paper's evaluation as printed tables.

Usage: python jobs/run.py EXHIBIT [--scale 1.0]

EXHIBIT is one of the names in ``repro.experiments.exhibits.EXHIBITS``,
where each exhibit is defined.
"""
from repro.experiments import exhibits

if __name__ == "__main__":
    exhibits.main()
