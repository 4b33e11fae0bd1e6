"""The four ledger workloads.

Each workload drives the program through its public API from one thread and
is cut into **ops** (the user-visible call that is timed) grouped into
**cycles** (one pass over the workload's inputs).  Every cycle replays the
same inputs, so once warm-up has captured a cycle's programs the timed
cycles capture nothing — by construction, not by luck of the seed.

Inputs come from ``--seed``, with one deliberate restriction: the *pool
composition* (which prototypes, which supercells) is drawn from the fixed
``POOL_SEED`` and ``--seed`` drives everything else — atomic displacements,
labels, arrival times, request order, tenant labels, epoch shuffles,
velocities.  ``generate_crystals`` has a long-tailed size distribution;
drawing the composition from ``--seed`` too makes the total work of a
128-structure pool swing by 2x between seeds (measured: cv 30 % of the
summed ``workload_cost``), which would drown every bound in the ledger.

Sizes live in ``SIZES`` (``full`` is what BENCHMARK.json measures, ``smoke``
is the tier-1 scale).  README.md says why each workload exists.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import StructureDataset
from repro.data.mptrj import LabeledStructure, generate_crystals
from repro.data.oracle import OraclePotential
from repro.graph.batching import workload_cost
from repro.graph.crystal_graph import build_graph
from repro.md import (
    FIREConfig,
    MDSpec,
    ModelCalculator,
    RelaxSpec,
    TrajectoryFarm,
    run_sequential,
)
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.serve import InferenceEngine, Prediction, TenantPolicy
from repro.train import DistributedConfig, DistributedTrainer

POOL_SEED = 0
#: Displacement (angstrom) applied per ``--seed`` to every pool crystal.
JITTER = 0.02


def _pool(n: int, max_atoms: int, seed: int):
    base = generate_crystals(n, POOL_SEED, max_atoms=max_atoms)
    return [
        c.perturbed(np.random.default_rng([seed, i]), JITTER)
        for i, c in enumerate(base)
    ]


def _config(dim: int, num_radial: int, angular_order: int, level: OptLevel) -> CHGNetConfig:
    return CHGNetConfig(
        atom_fea_dim=dim,
        bond_fea_dim=dim,
        angle_fea_dim=dim,
        num_radial=num_radial,
        angular_order=angular_order,
        hidden_dim=dim,
        opt_level=level,
    )


def _model(config: CHGNetConfig) -> CHGNetModel:
    model = CHGNetModel(config, np.random.default_rng(1))
    # The readout heads are zero-initialised: un-zero them so the
    # bit-identity checks compare real energies/forces/stresses.
    rng = np.random.default_rng(7)
    for p in model.parameters():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    return model


def _same_prediction(a: Prediction, b: Prediction) -> bool:
    return (
        a.energy_per_atom == b.energy_per_atom
        and np.array_equal(a.forces, b.forces)
        and np.array_equal(a.stress, b.stress)
        and np.array_equal(a.magmom, b.magmom)
    )


def _engine_counters(engine: InferenceEngine) -> dict[str, float]:
    snap = engine.snapshot()
    return {
        "captures": snap["captures"],
        "replays": snap["replays"],
        "eager_fallbacks": snap["eager_fallbacks"],
        "cache_hits": snap["cache_hits"],
        "cache_misses": snap["cache_misses"],
        "requests": snap["requests"],
        "batches": snap["batches"],
        "merged_batches": snap["merged_batches"],
        "lost": snap["load_shed"]
        + snap["quota_shed"]
        + snap["deadline_misses"]
        + snap["failed"]
        + snap["retries"],
        "raw_cost": engine.stats.raw_cost,
        "padded_cost": engine.stats.padded_cost,
    }


def _engine_gauges(engine: InferenceEngine) -> dict[str, float]:
    return {
        "arena_bytes": engine.cache.arena_bytes,
        "modeled_latency_p95": engine.snapshot()["latency_p95"],
    }


class Workload:
    """Protocol of a ledger workload (see the module docstring)."""

    name = ""
    #: ops in one cycle and timed cycles per 10 s of ``--seconds`` at ``full``
    ops_per_cycle = 1
    cycles_per_10s = 1.0

    def __init__(self, seed: int, size: dict) -> None:
        self.seed = seed
        self.size = size
        self.next_op = 0

    def inputs(self) -> None:
        """Generate the inputs from the seed (``bench.inputs_s``)."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Build the model/engine, capture and warm (``bench.warmup_s``)."""
        raise NotImplementedError

    def run_op(self) -> int:
        """Run the next op; returns the units it completed."""
        i = self.next_op
        self.next_op += 1
        return self._op(i)

    def run_cycle(self) -> None:
        """Run the ops up to the next cycle boundary (at least one)."""
        self.run_op()
        while self.next_op % self.ops_per_cycle:
            self.run_op()

    def warm_until_settled(self) -> None:
        """Run ``warm_cycles`` cycles, then on until one captures nothing.

        Canonical tier shapes grow while a cycle's groups are first seen,
        which can re-shape (and recapture) a group on its second visit; the
        timed section must start after the last capture, whatever the seed.
        """
        done = 0
        while True:
            before = self.counters()["captures"]
            self.run_cycle()
            done += 1
            settled = self.counters()["captures"] == before
            if done >= self.size["warm_cycles"] and (settled or done >= 8):
                return

    def _op(self, i: int) -> int:
        raise NotImplementedError

    def drain(self) -> int:
        """Finish work still in flight after the last op; failures found."""
        return 0

    def verify(self) -> tuple[int, int]:
        """Output checks after the timed section: (attempted, failed)."""
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Monotonic public counters; the child reports deltas of them."""
        raise NotImplementedError

    def gauges(self) -> dict[str, float]:
        """Point-in-time public readings (arena bytes, modeled latency)."""
        raise NotImplementedError


class ScreenCrystals(Workload):
    """Closed loop, one caller: ``predict_many`` over chunks of ``Crystal``s."""

    name = "screen_crystals"
    cycles_per_10s = 20.0

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__(seed, size)
        self.ops_per_cycle = size["pool"] // size["chunk"]

    def inputs(self) -> None:
        size = self.size
        pool = _pool(size["pool"], size["max_atoms"], self.seed)
        self.chunks = [
            pool[i : i + size["chunk"]] for i in range(0, len(pool), size["chunk"])
        ]

    def warmup(self) -> None:
        self.model = _model(_config(8, 7, 3, OptLevel.DECOMPOSE_FS))
        self.engine = InferenceEngine(
            self.model,
            n_workers=2,
            compile=True,
            max_batch_structs=8,
            max_programs=256,
            memoize=0,
        )
        self.warm_until_settled()

    def _op(self, i: int) -> int:
        chunk = self.chunks[i % len(self.chunks)]
        predictions = self.engine.predict_many(chunk)
        if len(predictions) != len(chunk):
            raise RuntimeError("predict_many dropped a structure")
        return len(chunk)

    def verify(self) -> tuple[int, int]:
        eager = InferenceEngine(
            self.model, n_workers=1, compile=False, max_batch_structs=1
        )
        failed = 0
        attempted = 0
        for chunk in self.chunks:
            served = self.engine.predict_many(chunk)
            solo = eager.predict_many(chunk)
            attempted += len(chunk)
            failed += sum(not _same_prediction(a, b) for a, b in zip(served, solo))
        return attempted, failed

    def counters(self) -> dict[str, float]:
        return _engine_counters(self.engine)

    def gauges(self) -> dict[str, float]:
        return _engine_gauges(self.engine)


class ServeStream(Workload):
    """Queue API: a seeded arrival trace replayed at engine speed.

    One op is a window of ``window`` submits, one ``publish_weights()`` and
    one poll sweep over the outstanding ids at the window's last arrival
    time.  The last window of a cycle polls ``max_wait`` past the cycle's
    end, so every cycle completes its own requests and the next one starts
    from empty queues (each cycle makes the same batching decisions).
    """

    name = "serve_stream"
    cycles_per_10s = 13.0
    RATE = 2000.0  # arrivals per *virtual* second
    MAX_WAIT = 0.05

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__(seed, size)
        self.ops_per_cycle = size["requests"] // size["window"]
        self.polled: dict[int, int] = {}  # id -> times a Prediction came back

    def inputs(self) -> None:
        size = self.size
        self.config = _config(8, 5, 2, OptLevel.DECOMPOSE_FS)
        pool = _pool(size["pool"], size["max_atoms"], self.seed)
        self.graphs = [
            build_graph(c, self.config.cutoff_atom, self.config.cutoff_bond)
            for c in pool
        ]
        rng = np.random.default_rng([self.seed, 1])
        n = size["requests"]
        self.arrivals = np.cumsum(rng.exponential(1.0 / self.RATE, n))
        # every pass over the pool visits each graph once, in seeded order
        self.picks = np.concatenate(
            [rng.permutation(len(pool)) for _ in range(n // len(pool))]
        )
        self.analyst = np.zeros(n, dtype=bool)  # 25 % interactive tenant
        self.analyst[rng.permutation(n)[: n // 4]] = True
        self.span = float(self.arrivals[-1]) + 4 * self.MAX_WAIT

    def warmup(self) -> None:
        self.model = _model(self.config)
        self.engine = InferenceEngine(
            self.model,
            n_workers=2,
            compile=True,
            max_batch_structs=8,
            max_wait=self.MAX_WAIT,
            merge_tiers=True,
            max_programs=256,
            tenants=[TenantPolicy("screening", 1.0), TenantPolicy("analyst", 4.0)],
        )
        self.outstanding: list[int] = []
        self.results: dict[int, Prediction] | None = None
        self.submitted_graph: dict[int, int] = {}
        self.warm_until_settled()

    def _op(self, i: int) -> int:
        cycle, window = divmod(i, self.ops_per_cycle)
        width = self.size["window"]
        offset = cycle * self.span
        engine = self.engine
        for k in range(window * width, (window + 1) * width):
            interactive = self.analyst[k]
            request_id = engine.submit(
                self.graphs[self.picks[k]],
                now=offset + self.arrivals[k],
                tenant="analyst" if interactive else "screening",
                request_class="interactive" if interactive else "bulk",
            )
            self.outstanding.append(request_id)
            if self.results is not None:
                self.submitted_graph[request_id] = int(self.picks[k])
        engine.publish_weights()
        now = offset + self.arrivals[(window + 1) * width - 1]
        if window == self.ops_per_cycle - 1:
            now += 2 * self.MAX_WAIT
        done = 0
        still = []
        for request_id in self.outstanding:
            prediction = engine.poll(request_id, now=now)
            if prediction is None:
                still.append(request_id)
                continue
            done += 1
            self.polled[request_id] = self.polled.get(request_id, 0) + 1
            if self.results is not None:
                self.results[request_id] = prediction
        self.outstanding = still
        return done

    def drain(self) -> int:
        """Final flush: every id still outstanding must poll to a Prediction."""
        self.engine.flush()
        lost = 0
        for request_id in self.outstanding:
            if self.engine.poll(request_id) is None:
                lost += 1
            else:
                self.polled[request_id] = self.polled.get(request_id, 0) + 1
        self.outstanding = []
        submitted = self.engine.snapshot()["requests"]
        once = sum(1 for n in self.polled.values() if n == 1)
        return lost + (submitted - once) + self.engine.pending

    def verify(self) -> tuple[int, int]:
        # Move the source weights, so the check also proves that a publish
        # reaches the workers: every request of the verification cycle is
        # pinned to a version published after the move.
        rng = np.random.default_rng([self.seed, 2])
        for p in self.model.parameters():
            p.data += rng.normal(scale=0.01, size=p.data.shape)
        self.engine.publish_weights()
        self.results = {}
        self.run_cycle()
        failed = self.drain()
        eager = InferenceEngine(
            self.model, n_workers=1, compile=False, max_batch_structs=1
        )
        solo = eager.predict_many(self.graphs)
        attempted = len(self.submitted_graph)
        for request_id, g in self.submitted_graph.items():
            served = self.results.get(request_id)
            if served is None or not _same_prediction(served, solo[g]):
                failed += 1
        return attempted, failed

    def counters(self) -> dict[str, float]:
        return _engine_counters(self.engine)

    def gauges(self) -> dict[str, float]:
        return _engine_gauges(self.engine)


class TrainDDP(Workload):
    """Closed loop: loader ``next()`` + one synchronized distributed step."""

    name = "train_ddp"
    cycles_per_10s = 13.0  # one cycle = one epoch

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__(seed, size)
        self.ops_per_cycle = size["structures"] // size["global_batch"]
        self.raw_cost = 0
        self.padded_cost = 0
        self.losses: list[float] = []

    def inputs(self) -> None:
        size = self.size
        oracle = OraclePotential()
        entries = [
            LabeledStructure(c, oracle.label(c))
            for c in _pool(size["structures"], size["max_atoms"], self.seed)
        ]
        self.dataset = StructureDataset(entries)

    def warmup(self) -> None:
        size = self.size
        config = _config(size["dim"], 7, 3, OptLevel.FUSED)
        self.trainer = DistributedTrainer(
            lambda: CHGNetModel(config, np.random.default_rng(1)),
            self.dataset,
            DistributedConfig(
                world_size=2,
                global_batch_size=size["global_batch"],
                epochs=1_000_000,  # the cosine schedule must outlast any run
                compile=True,
                memoize_shards=False,
                seed=self.seed,
            ),
        )
        self._steps = None
        self.warm_until_settled()

    def _op(self, i: int) -> int:
        epoch, step = divmod(i, self.ops_per_cycle)
        if step == 0:
            self._steps = self.trainer.loader.iter_epoch(epoch)
        shards = next(self._steps)
        stats = self.trainer.train_step(shards)
        self.losses.append(stats.loss)
        units = 0
        for batch in shards:
            dims = (batch.num_atoms, batch.num_edges, batch.num_short_edges, batch.num_angles)
            pad = batch.pad_info
            real = dims if pad is None else (
                pad.num_atoms, pad.num_edges, pad.num_short_edges, pad.num_angles
            )
            self.padded_cost += workload_cost(*dims)
            self.raw_cost += workload_cost(*real)
            units += batch.num_structs if pad is None else pad.num_structs
        return units

    def verify(self) -> tuple[int, int]:
        attempted = len(self.losses) + 1 + self.ops_per_cycle
        failed = sum(not np.isfinite(loss) for loss in self.losses)
        failed += not self.trainer.replicas_in_sync()
        # One more epoch with every replay re-run eagerly and compared bit
        # for bit (StepCompiler.validate): a divergence raises.
        for compiler in self.trainer.compilers:
            compiler.validate = True
        for _ in range(self.ops_per_cycle):
            try:
                self.run_op()
            except RuntimeError:
                failed += 1
        for compiler in self.trainer.compilers:
            compiler.validate = False
        return attempted, failed

    def _caches(self):
        return {id(c.cache): c.cache for c in self.trainer.compilers}.values()

    def counters(self) -> dict[str, float]:
        stats = self.trainer.compile_stats()
        return {
            "captures": stats["captures"],
            "replays": stats["replays"],
            "eager_fallbacks": stats["eager_fallbacks"],
            "cache_hits": sum(c.hits for c in self._caches()),
            "cache_misses": sum(c.misses for c in self._caches()),
            "raw_cost": self.raw_cost,
            "padded_cost": self.padded_cost,
        }

    def gauges(self) -> dict[str, float]:
        return {"arena_bytes": sum(c.arena_bytes for c in self._caches())}


class FarmWaves(Workload):
    """Closed loop: one complete ``TrajectoryFarm.run()`` per op.

    A cycle is ``farms`` distinct farms (displacements from ``(seed, farm,
    trajectory)``); every farm mixes NVT MD (even index) and FIRE
    relaxations that never converge (odd index) with staggered lengths, so
    its waves shrink as trajectories retire.
    """

    name = "farm_waves"
    cycles_per_10s = 25.0

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__(seed, size)
        self.ops_per_cycle = size["farms"]
        self.totals = dict.fromkeys(
            ("waves", "evaluations", "neighbor_builds", "neighbor_reuses",
             "angle_reuses", "angle_events"), 0
        )

    def inputs(self) -> None:
        size = self.size
        pool = generate_crystals(size["pool"], POOL_SEED, max_atoms=size["max_atoms"])
        lengths = size["lengths"]
        self.farms = []
        for farm in range(size["farms"]):
            specs = []
            for i in range(size["trajectories"]):
                crystal = pool[i % len(pool)].perturbed(
                    np.random.default_rng([self.seed, farm, i]), 0.03
                )
                steps = lengths[(i // 2) % len(lengths)]
                if i % 2 == 0:
                    specs.append(
                        MDSpec(crystal, steps, temperature_k=300.0, seed=i, rescale_every=5)
                    )
                else:
                    specs.append(
                        RelaxSpec(crystal, FIREConfig(fmax=1e-6, max_steps=steps))
                    )
            self.farms.append(specs)

    def warmup(self) -> None:
        self.model = _model(_config(8, 5, 2, OptLevel.DECOMPOSE_FS))
        self.engine = InferenceEngine(
            self.model,
            n_workers=2,
            compile=True,
            max_batch_structs=8,
            max_programs=256,
            memoize=0,
        )
        self.warm_until_settled()

    def _farm(self, specs, record: bool) -> TrajectoryFarm:
        farm = TrajectoryFarm(self.engine, skin=1.0, record=record)
        for spec in specs:
            farm.add(spec)
        return farm

    def _op(self, i: int) -> int:
        result = self._farm(self.farms[i % len(self.farms)], record=False).run()
        stats = result.stats
        diff = stats.diff
        totals = self.totals
        totals["waves"] += stats.waves
        totals["evaluations"] += stats.evaluations
        totals["neighbor_builds"] += stats.neighbor_builds
        totals["neighbor_reuses"] += stats.neighbor_reuses
        totals["angle_reuses"] += diff.angle_reuses
        totals["angle_events"] += diff.angle_reuses + diff.angle_diffs + diff.angle_rebuilds
        if any(not r.converged and r.kind == "md" for r in result.results):
            raise RuntimeError("an MD trajectory stopped early")
        return stats.structure_steps

    def verify(self) -> tuple[int, int]:
        specs = self.farms[0]
        farmed = self._farm(specs, record=True).run().results
        solo = run_sequential(specs, ModelCalculator(self.model), record=True)
        failed = 0
        for a, b in zip(farmed, solo):
            same = a.steps == b.steps and len(a.frames) == len(b.frames) and all(
                np.array_equal(fa.positions, fb.positions)
                and np.array_equal(fa.forces, fb.forces)
                and fa.energy == fb.energy
                for fa, fb in zip(a.frames, b.frames)
            )
            failed += not same
        return len(specs), failed

    def counters(self) -> dict[str, float]:
        return {**_engine_counters(self.engine), **self.totals}

    def gauges(self) -> dict[str, float]:
        return _engine_gauges(self.engine)


WORKLOADS = {w.name: w for w in (ScreenCrystals, ServeStream, TrainDDP, FarmWaves)}

SIZES = {
    "full": {
        "screen_crystals": {"pool": 128, "chunk": 16, "max_atoms": 12, "warm_cycles": 3},
        "serve_stream": {"pool": 16, "max_atoms": 2, "requests": 256, "window": 32, "warm_cycles": 2},
        "train_ddp": {"structures": 32, "max_atoms": 6, "global_batch": 4, "dim": 16, "warm_cycles": 2},
        "farm_waves": {"pool": 8, "max_atoms": 6, "farms": 4, "trajectories": 6,
                       "lengths": [2, 4, 6], "warm_cycles": 1},
    },
    "smoke": {
        "screen_crystals": {"pool": 16, "chunk": 4, "max_atoms": 6, "warm_cycles": 2},
        "serve_stream": {"pool": 8, "max_atoms": 6, "requests": 64, "window": 16, "warm_cycles": 2},
        "train_ddp": {"structures": 8, "max_atoms": 4, "global_batch": 4, "dim": 8, "warm_cycles": 2},
        "farm_waves": {"pool": 4, "max_atoms": 6, "farms": 2, "trajectories": 4,
                       "lengths": [2, 4], "warm_cycles": 1},
    },
}
