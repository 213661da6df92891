"""DIAC core: tree generation, policies, replacement, codegen, pipeline.

The paper's Section III methodology end to end: tree-based
representation (III-A), task granularity policies 1-3 (III-C), NVM
replacement criteria (III-D) and NV-enhanced code generation.
"""

from repro.core.codegen import GeneratedCode, TimingReport, generate_code
from repro.core.diac import DiacConfig, DiacDesign, DiacSynthesizer
from repro.core.feature import FeatureDict
from repro.core.policies import (
    PolicyConfig,
    apply_policy,
    apply_policy1,
    apply_policy2,
    apply_policy3,
    config_for_graph,
)
from repro.core.replacement import (
    REG_FLAG_BITS,
    NvmPlan,
    Partition,
    PlanMemo,
    ReplacementCriteria,
    insert_nvm,
    plan_memo_disabled,
)
from repro.core.tree import TaskGraph, TaskNode, TreeError
from repro.core.tree_generator import build_task_graph

__all__ = [
    "DiacConfig",
    "DiacDesign",
    "DiacSynthesizer",
    "FeatureDict",
    "GeneratedCode",
    "NvmPlan",
    "Partition",
    "PlanMemo",
    "PolicyConfig",
    "REG_FLAG_BITS",
    "ReplacementCriteria",
    "TaskGraph",
    "TaskNode",
    "TimingReport",
    "TreeError",
    "apply_policy",
    "apply_policy1",
    "apply_policy2",
    "apply_policy3",
    "build_task_graph",
    "config_for_graph",
    "generate_code",
    "insert_nvm",
    "plan_memo_disabled",
]
