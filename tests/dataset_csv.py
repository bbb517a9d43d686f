"""The tests' reader of the CSV that ``figures.emit`` writes."""

import numpy as np


def read_csv(data: bytes):
    """The column names and the rows of a CSV dataset, below its '#' header lines."""
    lines = [line for line in data.decode("ascii").splitlines() if not line.startswith("#")]
    return tuple(lines[0].split(",")), np.loadtxt(lines[1:], delimiter=",", ndmin=2)
