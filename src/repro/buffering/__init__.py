"""Buffer (inverter) insertion for clock trees.

* :mod:`repro.buffering.candidates` -- legal buffer-station generation along
  tree edges and the slew-driven maximum-load model.
* :mod:`repro.buffering.vanginneken` -- the van Ginneken dynamic program with
  non-dominated option pruning (the "fast buffer insertion" of the paper),
  run for a whole ladder of buffer types over one plan of the tree.
* :mod:`repro.buffering.fast_buffering` -- the composite-inverter sweep: one
  ladder walk over increasingly strong parallel inverters, keeping the
  strongest solution within the power budget (Section IV-C).
"""

from repro.buffering.candidates import (
    BufferStation,
    enumerate_stations,
    max_drivable_capacitance,
)
from repro.buffering.vanginneken import (
    BufferInsertionResult,
    apply_insertion,
    run_ladder,
)
from repro.buffering.fast_buffering import (
    BufferSizingSweepResult,
    insert_buffers_with_sizing,
)

__all__ = [
    "BufferStation",
    "enumerate_stations",
    "max_drivable_capacitance",
    "BufferInsertionResult",
    "run_ladder",
    "apply_insertion",
    "BufferSizingSweepResult",
    "insert_buffers_with_sizing",
]
