"""Benchmark generators and file I/O.

The original ISPD'09 CNS benchmark files and the Texas Instruments sink
placements used in the paper are not redistributable, so this package
generates synthetic equivalents with the published characteristics (die
sizes, sink counts, obstacle density, the Table I inverter library, slew and
capacitance limits) plus a plain-text reader/writer so instances can be saved
and shared.  See DESIGN.md section 2 for the substitution rationale.
"""

from repro.workloads.ispd09 import (
    ISPD09BenchmarkSpec,
    ISPD09_BENCHMARKS,
    generate_ispd09_benchmark,
)
from repro.workloads.ti import generate_ti_benchmark, TI_SINK_COUNTS
from repro.workloads.format import (
    instance_fingerprint,
    instance_lines,
    read_instance,
    write_instance,
)

__all__ = [
    "ISPD09BenchmarkSpec",
    "ISPD09_BENCHMARKS",
    "generate_ispd09_benchmark",
    "generate_ti_benchmark",
    "TI_SINK_COUNTS",
    "instance_fingerprint",
    "instance_lines",
    "read_instance",
    "write_instance",
]
