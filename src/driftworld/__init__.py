"""driftworld: a seeded open-ended world simulator with drifting
interaction laws, resolution-limited embodied agents, reachable goal
generation, and a learning-metric evaluation harness.

Everything downstream of a generation spec is deterministic: worlds,
problems, episodes, traces, and reports are pure functions of seeds and
configuration, and disclosure traces replay bit for bit.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.  Names resolve on first
#: use, so importing one submodule (say `protocol`, to serve an agent over
#: stdio) does not load the rest of the package.
_EXPORTS = {
    **dict.fromkeys(("EpisodeConfig", "RunConfig", "load_config"), "config"),
    **dict.fromkeys(("StepParams", "snapshot_hash", "step"), "dynamics"),
    **dict.fromkeys(("ConfigError", "ContractViolation", "DriftworldError",
                     "InsufficientDataError", "ProtocolError"), "errors"),
    **dict.fromkeys(("EpisodeResult", "Slot", "StageReport", "oracle_calibration",
                     "replay_trace", "run_episode", "run_stage1", "run_stage2"),
                    "harness"),
    **dict.fromkeys(("BodySpec", "SenseGrid", "grid_distance", "sense"), "interface"),
    **dict.fromkeys(("AgentMetrics", "MetricParams", "compute_metrics",
                     "rank_agents"), "metrics"),
    **dict.fromkeys(("Problem", "ProblemParams", "ScoreParams", "check_solved",
                     "generate_problem", "hit_score", "normalized_score",
                     "null_baseline"), "problems"),
    **dict.fromkeys(("CausationGrammar", "CausationLaw", "DriftSchedule", "GenSpec",
                     "World", "apply_drift", "generate_world", "sample_law"),
                    "worldgen"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
