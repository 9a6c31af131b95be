"""Shared helpers for the core test suite: synthetic stage DAGs.

The paper's pipelines come from :func:`repro.core.pipeline.build_pipeline`
and :func:`build_kpoint_pipeline`; these helpers construct arbitrary
small DAGs (diamonds, random graphs) so the DAG validator, the
topological-DP scheduler and the concurrent executor can be exercised on
shapes the paper never needed.
"""

from __future__ import annotations

import random

from repro.core.ir import function_from_workload
from repro.core.pipeline import Edge, Pipeline, Stage
from repro.dft.workload import problem_size
from repro.model import AccessPattern, KernelWorkload


def make_stage(
    name: str,
    flops: float,
    nbytes: float,
    pattern: AccessPattern = AccessPattern.SEQUENTIAL,
) -> Stage:
    """A synthetic stage with a given FLOP and traffic volume."""
    workload = KernelWorkload(
        name=name,
        flops=flops,
        bytes_read=nbytes * 0.6,
        bytes_written=nbytes * 0.4,
        access_pattern=pattern,
        parallel_tasks=64,
    )
    return Stage(
        name=name,
        workload=workload,
        function=function_from_workload(
            workload, live_in_bytes=nbytes / 2, live_out_bytes=nbytes / 2
        ),
    )


def diamond_pipeline(
    branch_flops: float = 2e12,
    branch_bytes: float = 4e10,
    edge_bytes: float = 1e6,
) -> Pipeline:
    """a -> (b, c) -> d with one compute-heavy and one traffic-heavy branch
    (so the cost-aware scheduler wants them on different devices) and
    near-free edges (so overlap gains dwarf boundary costs)."""
    stages = (
        make_stage("a", 1e10, 1e8),
        make_stage("b", branch_flops, branch_flops / 50, AccessPattern.BLOCKED),
        make_stage("c", branch_bytes / 10, branch_bytes),
        make_stage("d", 1e10, 1e8),
    )
    edges = (
        Edge("a", "b", edge_bytes),
        Edge("a", "c", edge_bytes),
        Edge("b", "d", edge_bytes),
        Edge("c", "d", edge_bytes),
    )
    return Pipeline(problem=problem_size(64), stages=stages, edges=edges)


def random_pipeline(rng: random.Random, n_stages: int) -> Pipeline:
    """A random connected DAG over ``n_stages`` synthetic stages: every
    stage past the first draws 1-3 predecessors from earlier stages."""
    patterns = list(AccessPattern)
    stages = tuple(
        make_stage(
            f"s{i}",
            flops=rng.uniform(1e10, 5e12),
            nbytes=rng.uniform(1e9, 2e11),
            pattern=rng.choice(patterns),
        )
        for i in range(n_stages)
    )
    edges: list[Edge] = []
    for j in range(1, n_stages):
        for i in rng.sample(range(j), k=rng.randint(1, min(j, 3))):
            edges.append(
                Edge(src=f"s{i}", dst=f"s{j}", nbytes=rng.uniform(1e6, 5e9))
            )
    return Pipeline(
        problem=problem_size(64), stages=stages, edges=tuple(edges)
    )


def relabelled_pipeline(pipeline: Pipeline, prefix: str) -> Pipeline:
    """The same stages and edges as ``pipeline`` under labels that carry
    ``prefix``: equal work and bytes, different names."""
    stages = tuple(
        Stage(
            name=f"{prefix}{stage.name}",
            workload=stage.workload,
            function=stage.function,
        )
        for stage in pipeline.stages
    )
    edges = tuple(
        Edge(
            src=f"{prefix}{edge.src}",
            dst=f"{prefix}{edge.dst}",
            nbytes=edge.nbytes,
        )
        for edge in pipeline.edges
    )
    return Pipeline(problem=pipeline.problem, stages=stages, edges=edges)
