"""Workload generation: synthetic trace profiles and real mini-kernels."""

from repro.workloads.assembler import Program, StaticInstruction, assemble
from repro.workloads.interpreter import ArchState, run_program
from repro.workloads.kernels import (
    KERNEL_BUILDERS,
    KernelSpec,
    build_kernel,
    kernel_trace,
)
from repro.workloads.profiles import (
    KERNEL_LIKE,
    MULTIMEDIA_LIKE,
    OFFICE_LIKE,
    PROFILES_BY_NAME,
    SERVER_LIKE,
    SPECFP_LIKE,
    SPECINT_LIKE,
    STANDARD_PROFILES,
    TraceProfile,
)
from repro.workloads.riscv import (
    RiscvProgram,
    Rv32iMachine,
    StepState,
    diff_state_traces,
    run_riscv_program,
    state_trace,
)
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.traceio import load_trace, save_trace
from repro.workloads.trace import Trace

__all__ = [
    "ArchState",
    "KERNEL_BUILDERS",
    "KERNEL_LIKE",
    "KernelSpec",
    "MULTIMEDIA_LIKE",
    "OFFICE_LIKE",
    "PROFILES_BY_NAME",
    "Program",
    "RiscvProgram",
    "Rv32iMachine",
    "SERVER_LIKE",
    "SPECFP_LIKE",
    "SPECINT_LIKE",
    "STANDARD_PROFILES",
    "StaticInstruction",
    "SyntheticTraceGenerator",
    "Trace",
    "TraceProfile",
    "StepState",
    "assemble",
    "build_kernel",
    "diff_state_traces",
    "kernel_trace",
    "load_trace",
    "run_program",
    "run_riscv_program",
    "save_trace",
    "state_trace",
]
