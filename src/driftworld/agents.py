"""Bundled reference agents.

Four baselines with very different information use: `null` never acts,
`random` flails with admissible forces, `greedy` probes how the sensor
mismatch responds to pushes and descends it, and `oracle` replays the
hidden script that generated the problem.  The oracle exists to
calibrate the difficulty scale and is barred from ranked evaluations;
harnesses enforce that through the `reportable` flag.

All agents are deterministic given their construction arguments; the
random agent's stream is injected so the harness controls seeding.  An
episode resets every agent first, so each episode starts from the state
the agent was built in and a reused seat writes a fresh seat's bytes.
"""

from __future__ import annotations

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, ContractViolation
from .interface import BodySpec


class BaseAgent:
    """The agent interface the episode loop drives, in process or over the wire.

    An episode calls `reset` once before its first tick.  Each tick the
    harness calls `act` with the observation, `{"tick": int, "grid":
    array}`, and then `resources`.  The grid is a read-only float64
    `(R, R, 2)` array of counts (channel 0 positive, 1 negative), the same
    in process and, rebuilt from its occupied cells, over the wire.
    Problem lifecycle notices arrive through `on_problem` /
    `on_problem_closed`.
    """

    kind = "base"
    reportable = True
    budget_misses = 0  # ticks whose reply missed the budget; counted over the wire

    def __init__(self, body: BodySpec):
        self.body = body
        self.n_members = len(body.member_ids)

    def reset(self) -> None:
        """Return to the state the agent was built in."""

    def on_problem(self, payload: dict) -> None:
        pass

    def on_problem_closed(self, payload: dict) -> None:
        pass

    def act(self, observation: dict) -> np.ndarray:
        raise NotImplementedError

    def resources(self) -> dict:
        return {"model_size": 0, "updates": 0}

    def _zero_action(self) -> np.ndarray:
        return np.zeros((self.n_members, 2))


class NullAgent(BaseAgent):
    """Never pushes anything.  The floor every other agent must beat."""

    kind = "null"

    def act(self, observation: dict) -> np.ndarray:
        return self._zero_action()


class RandomAgent(BaseAgent):
    """Admissible noise: an independent in-ball force per member per tick."""

    kind = "random"

    def __init__(self, body: BodySpec, stream: np.random.Generator):
        super().__init__(body)
        self._start = rngmod.clone_stream(stream)
        self.stream = stream

    def reset(self) -> None:
        self.stream = rngmod.clone_stream(self._start)

    def act(self, observation: dict) -> np.ndarray:
        forces = np.empty((self.n_members, 2))
        for m in range(self.n_members):
            forces[m] = rngmod.ball_uniform(self.stream, self.body.f_max)
        return forces


class GreedyAgent(BaseAgent):
    """Derivative-free descent on the observed sensor mismatch.

    The mismatch between the current grid and the target is a scalar
    field over the agent's own displacement; the agent feels it out
    instead of modeling the world.  Per problem it alternates probing
    and pursuing: a probe pushes along one axis, rests one tick so the
    glide dies out, and reads how the mismatch responded; once every
    axis is probed, it pushes at full authority along the estimated
    descent direction while the mismatch keeps dropping, then brakes
    and re-probes.  If no axis responds above the noise floor the probe
    push lengthens, up to a cap.

    The noise floor is the one thing carried across problems: an online
    estimate of ambient grid churn, sampled whenever the agent has been
    resting.  It sets the improvement margin, so the agent adapts its
    own sensitivity to however restless the current regime is.  No
    randomness anywhere; determinism comes free.
    """

    kind = "greedy"

    MARGIN_FLOOR = 0.004
    PROBE_SCALE = 0.5  # of f_max
    MAX_PROBE_LEN = 3
    MAX_BAD = 3

    def __init__(self, body: BodySpec):
        super().__init__(body)
        self.probe_force = self.PROBE_SCALE * body.f_max
        self.reset()

    def reset(self) -> None:
        self.target: np.ndarray | None = None
        self.noise = 0.005
        self.updates = 0
        self.prev_grid: np.ndarray | None = None
        self.rest_streak = 0
        self.ops: list[tuple] = []
        self.grad = np.zeros(2)
        self.d_ref = np.zeros(2)
        self.probe_len = 1
        self.pursue_dir: np.ndarray | None = None
        self.best_d = np.inf
        self.bad = 0

    def _begin_probe(self, brake: bool = False) -> None:
        # Out-and-back per axis: push out, read the mismatch at peak
        # displacement, push back the same number of ticks.  Net impulse
        # zero, so probing does not walk the body off the goal.
        ops: list[tuple] = [("rest",)] if brake else []
        for axis in range(2):
            ops.append(("mark", axis))
            ops.extend([("out", axis)] * self.probe_len)
            ops.append(("read", axis))
            ops.extend([("back", axis)] * (self.probe_len - 1))
        ops.append(("decide",))
        self.ops = ops
        self.grad[:] = 0.0

    def on_problem(self, payload: dict) -> None:
        self.target = np.asarray(payload["target_grid"], dtype=np.float64).ravel()
        self.probe_len = 1
        self.pursue_dir = None
        self.best_d = np.inf
        self.bad = 0
        self._begin_probe()

    def on_problem_closed(self, payload: dict) -> None:
        self.target = None
        self.ops = []
        self.pursue_dir = None

    @property
    def margin(self) -> float:
        return max(self.MARGIN_FLOOR, self.noise)

    def _learn_noise(self, grid: np.ndarray) -> None:
        # Two consecutive rests mean the change since the last tick is
        # pure ambient churn, not our own glide.
        if self.rest_streak >= 2 and self.prev_grid is not None:
            delta = grid - self.prev_grid
            sample = float(np.sqrt((delta * delta).mean()))
            self.noise = 0.9 * self.noise + 0.1 * sample
            self.updates += 1

    def _emit(self, common_force: np.ndarray) -> np.ndarray:
        self.rest_streak = self.rest_streak + 1 if not common_force.any() else 0
        return np.tile(common_force, (self.n_members, 1))

    def _axis_force(self, axis: int, sign: float) -> np.ndarray:
        f = np.zeros(2)
        f[axis] = sign * self.probe_force
        return f

    def act(self, observation: dict) -> np.ndarray:
        grid = observation["grid"].ravel()
        self._learn_noise(grid)
        self.prev_grid = grid

        if self.target is None:
            return self._emit(np.zeros(2))
        diff = grid - self.target
        d = float(np.sqrt((diff * diff).mean()))

        if self.pursue_dir is not None and not self.ops:
            if d < self.best_d - self.margin:
                self.best_d = d
                self.bad = 0
            else:
                self.bad += 1
            if self.bad < self.MAX_BAD:
                return self._emit(self.pursue_dir * self.body.f_max)
            self.pursue_dir = None
            self._begin_probe(brake=True)

        while self.ops:
            op = self.ops.pop(0)
            if op[0] == "rest":
                return self._emit(np.zeros(2))
            if op[0] == "mark":
                self.d_ref[op[1]] = d
                continue
            if op[0] == "out":
                return self._emit(self._axis_force(op[1], 1.0))
            if op[0] == "read":
                self.grad[op[1]] = d - self.d_ref[op[1]]
                return self._emit(self._axis_force(op[1], -1.0))
            if op[0] == "back":
                return self._emit(self._axis_force(op[1], -1.0))
            # decide
            if float(np.abs(self.grad).max()) < self.margin:
                # Nothing responded above the noise floor: probe longer.
                self.probe_len = min(self.probe_len + 1, self.MAX_PROBE_LEN)
                self._begin_probe()
                continue
            norm = float(np.linalg.norm(self.grad))
            self.pursue_dir = -self.grad / norm
            self.best_d = d
            self.bad = 0
            return self._emit(self.pursue_dir * self.body.f_max)

        return self._emit(np.zeros(2))

    def resources(self) -> dict:
        return {"model_size": 1, "updates": int(self.updates)}


class OracleAgent(BaseAgent):
    """Replays the hidden script behind each problem.  Calibration only.

    The harness feeds it each problem's script through `load_script`;
    using it in a ranked evaluation is a contract violation, which the
    harness enforces via `reportable`.
    """

    kind = "oracle"
    reportable = False

    def __init__(self, body: BodySpec):
        super().__init__(body)
        self.reset()

    def reset(self) -> None:
        self.script: np.ndarray | None = None
        self.issued_tick: int | None = None

    def load_script(self, actions: np.ndarray, issued_tick: int) -> None:
        actions = np.asarray(actions, dtype=np.float64)
        if actions.ndim != 3 or actions.shape[1:] != (self.n_members, 2):
            raise ContractViolation("script shape does not match this body")
        self.script = actions
        self.issued_tick = issued_tick

    def on_problem_closed(self, payload: dict) -> None:
        self.reset()

    def act(self, observation: dict) -> np.ndarray:
        if self.script is None:
            return self._zero_action()
        offset = observation["tick"] - self.issued_tick
        if 0 <= offset < self.script.shape[0]:
            return self.script[offset].copy()
        return self._zero_action()


AGENT_KINDS = {
    "null": NullAgent,
    "random": RandomAgent,
    "greedy": GreedyAgent,
    "oracle": OracleAgent,
}


def make_agent(kind: str, body: BodySpec, dim: int = 2,
               stream: np.random.Generator | None = None) -> BaseAgent:
    """Instantiate a bundled agent by kind name.  `dim` is the world's
    dimension, which is always 2; no other value is accepted."""
    if dim != 2:
        raise ConfigError(f"dim must be 2, got {dim!r}")
    if kind not in AGENT_KINDS:
        raise ConfigError(f"unknown agent kind: {kind!r}")
    if kind == "random":
        if stream is None:
            raise ConfigError("the random agent needs a stream")
        return RandomAgent(body, stream)
    return AGENT_KINDS[kind](body)
