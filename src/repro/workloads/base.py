"""Workload registry and shared construction helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.ir.program import Program, ProgramInput
from repro.ir.validate import validate_program


@dataclass(frozen=True)
class Workload:
    """A benchmark: a program builder plus its input sets.

    ``inputs`` always contains ``"train"`` and the reference input named
    ``ref_name`` ("ref", or SPEC's input name like "graphic" or "166").
    """

    name: str
    category: str  # "int" or "fp"
    description: str
    builder: Callable[[], Program]
    inputs: Dict[str, ProgramInput]
    ref_name: str = "ref"

    def build(self) -> Program:
        """Build (and validate) the base binary."""
        program = self.builder()
        validate_program(program)
        return program

    @property
    def train_input(self) -> ProgramInput:
        return self.inputs["train"]

    @property
    def ref_input(self) -> ProgramInput:
        return self.inputs[self.ref_name]

    def input_for(self, which: str) -> ProgramInput:
        """The input *which* names: "ref", "train", or an input name."""
        if which == "ref":
            return self.ref_input
        if which == "train":
            return self.train_input
        return self.inputs[which]

    @property
    def spec_name(self) -> str:
        """The paper's "program/input" label, e.g. ``gzip/graphic``."""
        return f"{self.name}/{self.ref_name}"


_REGISTRY: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    """Add a workload to the global registry (module import side effect)."""
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload {workload.name!r}")
    if "train" not in workload.inputs:
        raise ValueError(f"{workload.name}: missing 'train' input")
    if workload.ref_name not in workload.inputs:
        raise ValueError(f"{workload.name}: missing reference input")
    if workload.category not in ("int", "fp"):
        raise ValueError(f"{workload.name}: category must be 'int' or 'fp'")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    """Look up a workload by name or by "name/input" spec label."""
    base = name.split("/")[0]
    if base not in _REGISTRY:
        raise KeyError(
            f"unknown workload {base!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[base]


def workload_names() -> List[str]:
    return sorted(_REGISTRY)


def all_workloads() -> List[Workload]:
    return [_REGISTRY[n] for n in workload_names()]
