"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``train``    train a CHGNet/FastCHGNet variant on a synthetic-MPtrj corpus
``md``       run molecular dynamics on a named Table-II structure
``relax``    FIRE geometry relaxation of a (perturbed) named structure
``farm``     advance a mixed pool of relaxations/MD runs in lockstep waves
             through the serving engine
``serve``    serve a bulk inference request stream (tiered dynamic batching,
             adaptive tier merging, versioned weight hot-swap)
``profile``  profile one training iteration per optimization level
``dataset``  generate a corpus and print its statistics

Each command builds its objects from the flags, runs them, and returns one
summary read from their own records; :func:`main` prints it as ``key:
value`` lines (docs/cli.md, "Output") and exits 1 on a diverged
``--baseline`` or an unconverged relaxation.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from functools import partial

import numpy as np


VARIANTS = ("chgnet", "fast", "fast-wo-head")


def _compile_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--compile",
        action="store_true",
        help="compile once, replay after: batches pad to a few planned shapes "
        "(serving: workload tiers) and each shape's tape is captured once "
        "into a program cache that every rank or worker shares, then "
        "replayed with arena buffers and fused kernels, bit-identical to "
        "eager with automatic eager fallback (md/relax: model calculators "
        "only)",
    )


def _corpus_flags(p: argparse.ArgumentParser, structures: int, max_atoms: int) -> None:
    p.add_argument(
        "--structures",
        type=int,
        default=structures,
        help="synthetic MPtrj corpus size (farm and serve cycle it as their pool)",
    )
    p.add_argument("--max-atoms", type=int, default=max_atoms)
    p.add_argument("--seed", type=int, default=0)


def _calculator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--structure", choices=("LiMnO2", "LiTiPO5", "Li9Co7O16"), default="LiMnO2")
    p.add_argument("--calculator", choices=("oracle", "fast", "chgnet"), default="oracle")
    p.add_argument("--checkpoint", default="", help="load model weights from this .npz path")
    p.add_argument(
        "--skin",
        type=float,
        default=0.0,
        help="model calculators only: Verlet skin radius in angstroms; reuse "
        "the neighbor search across steps until an atom moves > skin/2",
    )
    _compile_flag(p)


def _engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=VARIANTS, default="fast")
    p.add_argument("--checkpoint", default="", help="load model weights from this .npz path")
    p.add_argument("--workers", type=int, default=2, help="simulated serving workers")
    p.add_argument(
        "--batch-structs", type=int, default=8, help="engine micro-batch flush threshold"
    )
    _compile_flag(p)
    p.add_argument(
        "--baseline",
        action="store_true",
        help="also run eager unbatched inference (per request, or per "
        "trajectory step) and report its rate plus a bitwise equality check "
        "(farm: and the speedup); a DIVERGED check exits 1",
    )


def _state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--state",
        default="",
        metavar="PATH",
        help="checkpoint the run's full state (train: model, optimizer "
        "moments, schedule and data cursor; farm: every trajectory) to this "
        "path in the atomic, CRC-validated RCKPT1 format; a crashed run "
        "resumed from it finishes bit-identical to an uninterrupted one",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="--state cadence: every N steps (train) or stepping waves (farm)",
    )


def _fire_flags(p: argparse.ArgumentParser, max_steps: int) -> None:
    p.add_argument(
        "--fmax",
        type=float,
        default=0.05,
        help="relaxation tolerance on the max per-atom force norm (eV/A)",
    )
    p.add_argument(
        "--max-steps", type=int, default=max_steps, help="relaxation force-evaluation budget"
    )


def _md_flags(p: argparse.ArgumentParser, steps: int) -> None:
    p.add_argument("--steps", type=int, default=steps, help="MD steps (per MD trajectory)")
    p.add_argument("--temperature", type=float, default=300.0, help="MD temperature (K)")


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="train a model on synthetic MPtrj")
    p.add_argument("--variant", choices=VARIANTS, default="fast")
    _corpus_flags(p, structures=80, max_atoms=10)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=None, help="default: 3e-4 (or Eq. 14 with --scale-lr)")
    p.add_argument("--scale-lr", action="store_true", help="apply the Eq. 14 scaling rule")
    p.add_argument("--checkpoint", default="", help="save trained weights to this .npz path")
    _compile_flag(p)
    p.add_argument(
        "--n-workers",
        type=int,
        default=None,
        help="worker threads for dataset graph construction (default: serial)",
    )
    p.add_argument(
        "--world-size",
        type=int,
        default=1,
        help="simulated data-parallel ranks (1: one device); --batch-size is "
        "the global batch, split evenly across them, and the learning rate "
        "is --lr, else Eq. 14 on the global batch with --scale-lr, else 3e-4, "
        "at every world size",
    )
    p.add_argument(
        "--n-buckets",
        type=int,
        default=8,
        help="gradient buckets for the overlapped allreduce flush",
    )
    _state_flags(p)
    p.add_argument(
        "--resume",
        default="",
        metavar="PATH",
        help="resume training from a --state checkpoint; the run picks up "
        "mid-epoch at the exact step and finishes bit-identical to an "
        "uninterrupted run at the same world size",
    )
    p.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="inject a failure into the simulated comm layer (repeatable; "
        "--world-size > 1 only): kill:RANK:STEP kills a rank at a global "
        "step (the run recovers elastically from --state), "
        "timeout:STEP[:ATTEMPTS] times out the gradient flush (retried "
        "with backoff), straggle:RANK:SECONDS[:START[:STOP]] skews a "
        "rank's clock",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="recover from a killed rank by replacing it (same world size, "
        "bit-identical finish) instead of shrinking the world to the "
        "survivors",
    )


def _add_md(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("md", help="molecular dynamics on a Table II structure")
    _calculator_flags(p)
    _md_flags(p, steps=5)
    p.add_argument("--timestep", type=float, default=1.0, help="femtoseconds")


def _add_relax(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("relax", help="FIRE relaxation of a Table II structure")
    _calculator_flags(p)
    _fire_flags(p, max_steps=500)
    p.add_argument(
        "--max-step",
        type=float,
        default=0.2,
        help="trust radius (A): largest per-atom displacement allowed per drift",
    )
    p.add_argument("--timestep", type=float, default=0.5, help="initial FIRE timestep (fs)")
    p.add_argument(
        "--perturb",
        type=float,
        default=0.1,
        help="gaussian jitter (A, stddev) applied to positions before relaxing "
        "(0: relax the pristine prototype)",
    )
    p.add_argument("--seed", type=int, default=0, help="jitter seed")


def _add_farm(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "farm", help="lockstep trajectory farm (mixed relax/MD) over the engine"
    )
    p.add_argument("--trajectories", type=int, default=16, help="total trajectory count")
    _corpus_flags(p, structures=8, max_atoms=8)
    _engine_flags(p)
    _fire_flags(p, max_steps=50)
    _md_flags(p, steps=20)
    p.add_argument(
        "--md-fraction",
        type=float,
        default=0.5,
        help="fraction of trajectories run as NVT MD (the rest relax with FIRE)",
    )
    p.add_argument(
        "--skin",
        type=float,
        default=1.0,
        help="per-trajectory Verlet skin radius in angstroms (0: rebuild the "
        "neighbor list every step)",
    )
    _state_flags(p)
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume a farm from the --state checkpoint instead of starting "
        "fresh; the initial wave is skipped (its evaluation is already "
        "folded into the restored states)",
    )
    p.add_argument(
        "--max-waves",
        type=int,
        default=0,
        metavar="K",
        help="stop after K stepping waves (0: run to completion); with "
        "--state this simulates a kill-at-wave-K crash to resume from",
    )


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve", help="serve a bulk inference stream through the batching engine"
    )
    p.add_argument("--requests", type=int, default=64, help="total request count")
    _corpus_flags(p, structures=16, max_atoms=10)
    _engine_flags(p)
    p.add_argument(
        "--publish-every",
        type=int,
        default=0,
        metavar="N",
        help="republish the model's weights as a new served version every N "
        "requests (0: never); drives the stream through the async "
        "submit/poll queue and demonstrates recapture-free weight hot-swap "
        "under live fine-tuning (in-flight requests stay pinned to the "
        "version they entered with)",
    )
    p.add_argument(
        "--merge-tiers",
        action="store_true",
        help="adaptive micro-batching: deadline-flushed partial groups "
        "absorb pending requests from adjacent workload tiers (bounded "
        "padding overhead), trading a few ghost rows for fuller batches on "
        "diverse trickles; drives the stream through the async queue",
    )
    p.add_argument(
        "--memoize",
        type=int,
        default=0,
        metavar="N",
        help="engine-side collate memoization: LRU of N collated "
        "micro-batches keyed by member-graph identity (0: off), so "
        "recurring request pools bind-and-replay with zero re-concatenation",
    )
    p.add_argument(
        "--inject-worker-fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="inject a worker fault at dispatch time: kill:WORKER:DISPATCH "
        "(permanent death, discovered on dispatch and retried on "
        "survivors), flake:WORKER:DISPATCH[:COUNT] (transient failures, "
        "recovered after COUNT), or straggle:WORKER:SECONDS[:START[:STOP]] "
        "(virtual service-time skew); repeatable, duplicates rejected",
    )
    p.add_argument(
        "--hedge",
        action="store_true",
        help="duplicate batches stuck behind a straggling worker onto the "
        "idlest healthy worker and keep the first completion (safe: "
        "replays are bit-identical)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="per-request deadline on the virtual clock (0: none); a "
        "request still queued past it is shed with DeadlineExceeded "
        "instead of burning worker time (drives the async queue)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="re-dispatches a request may consume after worker failures "
        "before it is shed with a terminal WorkerFailure",
    )
    p.add_argument(
        "--replace-workers",
        action="store_true",
        help="replace a worker discovered dead with a fresh replica on the "
        "shared program cache (elastic serving, mirroring train "
        "--inject-fault recovery) instead of draining it permanently",
    )
    p.add_argument(
        "--tenants",
        default="",
        metavar="SPECS",
        help="comma-separated tenant policies NAME[:WEIGHT[:MAX_PENDING]] "
        "(e.g. 'screening:1,analyst:4:32'); requests are assigned "
        "round-robin across tenants and scheduled by start-time "
        "weighted-fair queuing over modeled batch cost, with per-tenant "
        "admission quotas (MAX_PENDING, 0: unbounded) shed as typed "
        "EngineOverloaded errors",
    )
    p.add_argument(
        "--class",
        dest="request_class",
        choices=("bulk", "interactive", "mixed"),
        default="bulk",
        help="request class for the stream: 'interactive' flushes partial "
        "batches 5x sooner than the engine-wide wait, 'bulk' keeps the "
        "engine default, 'mixed' alternates (every 4th request "
        "interactive)",
    )
    p.add_argument(
        "--sla",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="interactive-class modeled p95 target for --autoscale (0: "
        "half the engine-wide max wait)",
    )
    p.add_argument(
        "--autoscale",
        type=int,
        default=0,
        metavar="MAX_WORKERS",
        help="load-driven elasticity: scale the fleet out (up to "
        "MAX_WORKERS replicas on the shared program cache, zero "
        "recaptures) when interactive modeled p95 breaches the SLA for "
        "consecutive scans, and drain-and-retire replicas when idle "
        "(0: fixed fleet)",
    )


def _add_profile(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("profile", help="profile one training iteration per OptLevel")
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--structures", type=int, default=16)


def _add_dataset(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("dataset", help="generate a corpus and print statistics")
    _corpus_flags(p, structures=50, max_atoms=24)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_train, _add_md, _add_relax, _add_farm, _add_serve, _add_profile, _add_dataset):
        add(sub)
    return parser


@contextmanager
def _setup(command: str):
    """Build a command's objects from its flags, turning a rejected value
    into ``SystemExit("<command>: <message>")``.

    Each ``cmd_*`` builds everything its flags configure inside this guard
    before it runs anything; a ``ValueError`` raised later stays a traceback.
    """
    try:
        yield
    except ValueError as exc:
        raise SystemExit(f"{command}: {exc}") from None


def _lines(summary: dict, prefix: str = ""):
    """``key: value`` lines of ``summary``, nested dicts as dotted keys.

    A zero, ``None``, an empty string or an empty list is left out, so a
    feature the run did not use adds no line; a boolean always shows.
    Lists are comma-joined and floats keep 4 significant digits.
    """
    for key, value in summary.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _lines(value, f"{name}.")
        elif isinstance(value, bool) or value not in (None, 0, "", [], ()):
            items = value if isinstance(value, (list, tuple)) else [value]
            text = ", ".join(f"{v:.4g}" if isinstance(v, float) else str(v) for v in items)
            yield f"{name}: {text}"


def _report(summary: dict) -> None:
    """Print a command's summary: one ``key: value`` line per record."""
    print("\n".join(_lines(summary)), flush=True)


def _build_model(variant: str, seed: int, weights: str = ""):
    """A freshly initialized ``variant`` model, with ``weights`` loaded if given."""
    from repro.model import CHGNet, FastCHGNet

    rng = np.random.default_rng(seed)
    if variant == "chgnet":
        model = CHGNet(rng)
    else:
        model = FastCHGNet(rng, use_heads=variant != "fast-wo-head")
    if weights:
        model.load(weights)
    return model


def _print_epoch(epoch: int, record) -> None:
    """Epoch hook of ``train``: one line per completed epoch."""
    msg = (
        f"epoch {epoch:3d} loss={record.train_loss:.4f} "
        f"E={record.train_energy_mae * 1e3:7.1f}meV/atom "
        f"F={record.train_force_mae * 1e3:7.1f}meV/A lr={record.lr:.2e}"
    )
    if record.val:
        msg += f" | val E={record.val.energy_mae * 1e3:7.1f}"
    print(msg, flush=True)


def cmd_train(args: argparse.Namespace) -> dict:
    from repro.comm import FaultPlan
    from repro.data import generate_mptrj, split_dataset
    from repro.train import DistributedConfig, DistributedTrainer, evaluate, run_elastic

    with _setup("train"):
        if args.inject_fault and args.world_size <= 1:
            raise ValueError("--inject-fault requires --world-size > 1")
        if args.inject_fault and not args.state:
            raise ValueError("--inject-fault requires --state (recovery needs a checkpoint)")
        if args.checkpoint_every < 1:
            raise ValueError(f"--checkpoint-every must be >= 1, got {args.checkpoint_every}")
        config = DistributedConfig(
            world_size=args.world_size,
            global_batch_size=args.batch_size,
            epochs=args.epochs,
            learning_rate=args.lr,
            scale_lr=args.scale_lr,
            seed=args.seed,
            compile=args.compile,
            n_buckets=args.n_buckets,
        )
        plan = FaultPlan.parse(args.inject_fault) if args.inject_fault else None
        entries = generate_mptrj(args.structures, seed=args.seed, max_atoms=args.max_atoms)
        splits = split_dataset(entries, seed=args.seed, n_workers=args.n_workers)
        model_factory = partial(_build_model, args.variant, args.seed + 7)
        build = DistributedTrainer
        if args.resume:
            build = partial(DistributedTrainer.resume, args.resume)
        trainer = build(model_factory, splits.train, config, plan, val_dataset=splits.val)
    summary = {"variant": args.variant, "parameters": trainer.model.num_parameters()}
    if args.resume:
        summary["resumed from"] = (
            f"{args.resume}: epoch {trainer.epoch}, global step {trainer.global_step}"
        )
    trainer.add_epoch_hook(_print_epoch)
    if plan is None:
        trainer.train(checkpoint_path=args.state or None, checkpoint_every=args.checkpoint_every)
    else:
        elastic = run_elastic(
            trainer,
            checkpoint_path=args.state,
            checkpoint_every=args.checkpoint_every,
            shrink=not args.no_shrink,
        )
        trainer = elastic.trainer
        for f in elastic.failures:
            summary[f"rank {f.rank} failed at step {f.step}"] = (
                f"world {f.world_before} -> {f.world_after}, {f.steps_lost} steps "
                f"redone, resume {f.resume_seconds * 1e3:.1f} ms"
            )
    result, _ = evaluate(trainer.model, splits.test)
    if args.checkpoint:
        trainer.model.save(args.checkpoint)
    return {
        **summary,
        "flush retries": trainer.flush_retries,
        "flush backoff ms": trainer.backoff_seconds * 1e3,
        "global steps": trainer.global_step,
        "ranks": trainer.config.world_size,
        "replicas in sync": trainer.replicas_in_sync(),
        "compiled": trainer.compile_stats(),
        "state": args.state,
        "weights": args.checkpoint,
        "test (E meV/atom, F meV/A, S GPa, M m-muB)": result.row(args.variant),
    }


def _model_calculator(args: argparse.Namespace):
    """Oracle or model calculator from the shared --calculator flags."""
    from repro.md import ModelCalculator, OracleCalculator

    if args.calculator == "oracle":
        for flag, value in (("--skin", args.skin), ("--compile", args.compile)):
            if value:
                raise ValueError(
                    f"{flag} only applies to model calculators, not --calculator oracle"
                )
        return OracleCalculator()
    model = _build_model(args.calculator, 0, args.checkpoint)
    return ModelCalculator(model, skin=args.skin, compile=args.compile)


def _run_trajectory(name: str, trajectory, calc, every: int, describe) -> dict:
    """Run one MD or relaxation trajectory of structure ``name`` to the end,
    printing a ``step`` line with ``describe(state)`` and the step's wall
    time every ``every`` steps and at the last; returns the run's summary."""
    crystal = trajectory.spec.crystal
    trajectory.start(calc.calculate(crystal))
    step_ms = []
    while not trajectory.done:
        t0 = time.perf_counter()
        trajectory.advance(calc)
        step_ms.append((time.perf_counter() - t0) * 1e3)
        if trajectory.steps % every == 0 or trajectory.done:
            print(
                f"  step {trajectory.steps:4d}  {describe(trajectory.state)}  "
                f"{step_ms[-1]:7.1f} ms/step"
            )
    result = trajectory.result()
    return {
        "structure": name,
        "atoms": crystal.num_atoms,
        "steps": result.steps,
        "energy eV": result.energy,
        "fmax eV/A": result.fmax,
        "mean ms/step": float(np.mean(step_ms)) if step_ms else None,
        "converged": result.converged if trajectory.kind == "relax" else None,
    }


def cmd_md(args: argparse.Namespace) -> dict:
    from repro.md import MDSpec, Trajectory, instantaneous_temperature
    from repro.structures import named_structures

    with _setup("md"):
        if args.steps < 1:
            raise ValueError(f"--steps must be >= 1, got {args.steps}")
        crystal = named_structures()[args.structure]
        calc = _model_calculator(args)
        spec = MDSpec(
            crystal, args.steps, timestep_fs=args.timestep, temperature_k=args.temperature
        )
        trajectory = Trajectory(0, spec, record=False)

    def describe(state) -> str:
        temperature = instantaneous_temperature(state.crystal, state.velocities)
        return f"E_pot {state.potential_energy:10.4f} eV  T {temperature:7.1f} K"

    return _run_trajectory(args.structure, trajectory, calc, 1, describe)


def cmd_relax(args: argparse.Namespace) -> dict:
    from repro.md import FIREConfig, RelaxSpec, Trajectory
    from repro.structures import named_structures

    with _setup("relax"):
        crystal = named_structures()[args.structure]
        if args.perturb > 0:
            crystal = crystal.perturbed(np.random.default_rng(args.seed), args.perturb)
        calc = _model_calculator(args)
        config = FIREConfig(
            fmax=args.fmax,
            max_steps=args.max_steps,
            max_step=args.max_step,
            timestep_fs=args.timestep,
        )
        trajectory = Trajectory(0, RelaxSpec(crystal, config), record=False)

    def describe(state) -> str:
        return (
            f"E {state.potential_energy:10.4f} eV  fmax {state.fmax:8.4f} eV/A  "
            f"dt {state.dt:5.3f} fs"
        )

    every = max(1, args.max_steps // 10)
    summary = _run_trajectory(args.structure, trajectory, calc, every, describe)
    return {**summary, "perturb A": args.perturb, "fmax tolerance eV/A": args.fmax}


def cmd_farm(args: argparse.Namespace) -> dict:
    from repro.data import generate_mptrj
    from repro.md import (
        FIREConfig,
        MDSpec,
        ModelCalculator,
        RelaxSpec,
        TrajectoryFarm,
        run_sequential,
    )
    from repro.serve import InferenceEngine

    with _setup("farm"):
        if not 0 <= args.md_fraction <= 1:
            raise ValueError(f"--md-fraction must lie in [0, 1], got {args.md_fraction}")
        if args.resume and not args.state:
            raise ValueError("--resume requires --state (the checkpoint to resume from)")
        if args.resume and args.baseline:
            raise ValueError(
                "--resume cannot take --baseline (the baseline replays a fresh "
                "run from the flags, not the restored trajectories)"
            )
        if args.max_waves and args.baseline:
            raise ValueError(
                "--max-waves cannot take --baseline (the baseline runs every "
                "trajectory to completion, not K waves)"
            )
        if args.checkpoint_every < 1:
            raise ValueError(f"--checkpoint-every must be >= 1, got {args.checkpoint_every}")
        model = _build_model(args.variant, args.seed, args.checkpoint)
        engine = InferenceEngine(
            model,
            n_workers=args.workers,
            compile=args.compile,
            max_batch_structs=args.batch_structs,
        )
        if args.resume:
            farm = TrajectoryFarm.resume(args.state, engine)
        else:
            farm = TrajectoryFarm(engine, skin=args.skin, record=args.baseline)
            fire = FIREConfig(fmax=args.fmax, max_steps=args.max_steps)
            make_md = partial(
                MDSpec, n_steps=args.steps, temperature_k=args.temperature, rescale_every=5
            )
            pool = generate_mptrj(args.structures, seed=args.seed, max_atoms=args.max_atoms)
            n_md = int(round(args.md_fraction * args.trajectories))
            for i in range(args.trajectories):
                crystal = pool[i % len(pool)].crystal.perturbed(
                    np.random.default_rng(args.seed + 100 + i), 0.03
                )
                if i < n_md:
                    farm.add(make_md(crystal, seed=args.seed + i))
                else:
                    farm.add(RelaxSpec(crystal, fire))
    state = f"checkpointed to {args.state} (RCKPT1, resumable)" if args.state else None
    if args.resume:
        state = f"resumed {len(farm)} trajectories from {args.state}"
    t0 = time.perf_counter()
    result = farm.run(
        max_waves=args.max_waves or None,
        checkpoint_path=args.state or None,
        checkpoint_every=args.checkpoint_every,
    )
    wall = time.perf_counter() - t0
    stats = result.stats
    # Counts come from the trajectories that ran: a resumed farm's are the
    # checkpoint's, not the flags'.
    md = [r.spec for r in result.results if r.kind == "md"]
    relax = [r.spec for r in result.results if r.kind == "relax"]
    steps = md[0].n_steps if md else args.steps
    fmax = relax[0].config.fmax if relax else args.fmax
    converged = sum(1 for r in result.results if r.kind == "relax" and r.converged)
    rate = stats.structure_steps / wall if wall > 0 else float("inf")
    summary = {
        "state": state,
        "run": f"{len(result.results)} trajectories ({len(md)} MD x {steps} steps, "
        f"{len(relax)} relax @ fmax {fmax}) in {wall:.3f}s ({rate:.1f} steps/s)",
        "relax": f"{converged}/{len(relax)} relaxations converged",
        "farm": stats.as_dict(),
        "compiled": engine.compile_stats(),
    }
    if args.baseline:
        calc = ModelCalculator(model)
        t0 = time.perf_counter()
        base = run_sequential([r.spec for r in result.results], calc, record=True)
        base_wall = time.perf_counter() - t0
        identical = all(
            f.steps == b.steps
            and len(f.frames) == len(b.frames)
            and all(
                np.array_equal(ff.positions, bf.positions)
                and np.array_equal(ff.forces, bf.forces)
                and ff.energy == bf.energy
                for ff, bf in zip(f.frames, b.frames)
            )
            for f, b in zip(result.results, base)
        )
        summary["baseline"] = "bit-identical" if identical else "DIVERGED"
        summary["baseline steps/s"] = stats.structure_steps / base_wall
        summary["speedup"] = base_wall / wall
    return summary


def cmd_serve(args: argparse.Namespace) -> dict:
    from repro.data import generate_mptrj
    from repro.graph.crystal_graph import build_graph
    from repro.serve import (
        AutoscaleConfig,
        DeadlineExceeded,
        EngineOverloaded,
        InferenceEngine,
        TenantPolicy,
        WorkerFailure,
        WorkerFaultPlan,
    )

    max_wait = 0.05  # the engine default, spelled out so --sla can scale to it
    with _setup("serve"):
        # Applied per submit, after the stream is built: check it now.
        if args.deadline < 0:
            raise ValueError(f"--deadline must be non-negative, got {args.deadline}")
        fault_plan = WorkerFaultPlan.parse(args.inject_worker_fault)
        tenants = [TenantPolicy.parse(t) for t in args.tenants.split(",")] if args.tenants else None
        autoscale = None
        if args.autoscale:
            autoscale = AutoscaleConfig(
                sla_p95=args.sla or max_wait / 2.0,
                max_workers=args.autoscale,
                min_workers=args.workers,
            )
        model = _build_model(args.variant, args.seed, args.checkpoint)
        engine = InferenceEngine(
            model,
            n_workers=args.workers,
            compile=args.compile,
            max_batch_structs=args.batch_structs,
            max_wait=max_wait,
            merge_tiers=args.merge_tiers,
            memoize=args.memoize,
            fault_plan=fault_plan,
            max_retries=args.max_retries,
            hedge=args.hedge,
            replace_workers=args.replace_workers,
            tenants=tenants,
            paced=tenants is not None,
            autoscale=autoscale,
        )
        pool = generate_mptrj(args.structures, seed=args.seed, max_atoms=args.max_atoms)
    graphs = [build_graph(e.crystal) for e in pool]
    stream = [graphs[i % len(graphs)] for i in range(args.requests)]
    tenant_names = [p.name for p in tenants] if tenants else [None]

    def _request_class(i: int) -> str:
        if args.request_class == "mixed":
            return "interactive" if i % 4 == 3 else "bulk"
        return args.request_class

    # The async submit/poll queue exercises deadlines, tier merging,
    # mid-stream publishes and multi-tenant scheduling; the synchronous
    # path plans its groups over the whole stream.
    use_queue = (
        args.publish_every > 0
        or args.merge_tiers
        or args.deadline > 0
        or tenants is not None
        or autoscale is not None
        or args.request_class != "bulk"
    )

    def _drive_queue(stream):
        dt = engine.max_wait / 4  # a handful of arrivals per deadline window
        engine.warm_start(stream)  # the stream is known up front: seed tiers
        ids = []
        for i, graph in enumerate(stream):
            if args.publish_every and i and i % args.publish_every == 0:
                # A live trainer would have updated the model in between;
                # snapshotting unchanged weights still proves the swap is
                # recapture-free (and keeps --baseline comparable).
                engine.publish_weights()
            try:
                ids.append(
                    engine.submit(
                        graph,
                        now=i * dt,
                        deadline=args.deadline or None,
                        tenant=tenant_names[i % len(tenant_names)],
                        request_class=_request_class(i),
                    )
                )
            except EngineOverloaded:
                # Quota shed at admission: the tenant's pending backlog is
                # full; keep the stream aligned with a None marker.
                ids.append(None)
        engine.flush()
        out = []
        for request_id in ids:
            # Shed requests (missed deadline, every retry failed) surface
            # as typed errors; keep the stream aligned with None markers.
            try:
                out.append(None if request_id is None else engine.poll(request_id))
            except (DeadlineExceeded, WorkerFailure):
                out.append(None)
        return out

    t0 = time.perf_counter()
    preds = _drive_queue(stream) if use_queue else engine.predict_many(stream)
    wall = time.perf_counter() - t0
    served = sum(p is not None for p in preds)
    summary = {
        "run": f"{served}/{len(preds)} requests in {wall:.3f}s ({served / wall:.1f} structs/s)",
        "fleet size": engine.fleet_size,
        "engine": engine.snapshot(),
        "unfired faults": fault_plan.unfired(),
    }
    if args.baseline:
        eager = InferenceEngine(model, n_workers=1, compile=False, max_batch_structs=1)
        t0 = time.perf_counter()
        base = eager.predict_many(stream)
        base_wall = time.perf_counter() - t0
        identical = all(
            a.energy_per_atom == b.energy_per_atom
            and np.array_equal(a.forces, b.forces)
            and np.array_equal(a.stress, b.stress)
            and np.array_equal(a.magmom, b.magmom)
            for a, b in zip(preds, base)
            if a is not None  # shed requests have no bits to compare
        )
        summary["baseline"] = "bit-identical" if identical else "DIVERGED"
        summary["baseline structs/s"] = len(base) / base_wall
    return summary


def cmd_profile(args: argparse.Namespace) -> dict:
    from repro.data import generate_mptrj, split_dataset
    from repro.model import CHGNetConfig, CHGNetModel, OptLevel
    from repro.runtime import device_profile
    from repro.train import Adam, CompositeLoss

    with _setup("profile"):
        entries = generate_mptrj(args.structures, seed=2, max_atoms=10)
        splits = split_dataset(entries, seed=0, fractions=(0.8, 0.1, 0.1))
        batch = splits.train.batch(np.arange(min(args.batch_size, len(splits.train))))
    summary = {}
    for level in OptLevel:
        model = CHGNetModel(CHGNetConfig(opt_level=level), np.random.default_rng(1))
        loss_fn = CompositeLoss()
        optimizer = Adam(model.parameters(), lr=3e-4)

        def step():
            model.zero_grad()
            out = model.forward(batch, training=True)
            loss_fn(out, batch).loss.backward()
            optimizer.step()

        step()
        with device_profile() as prof:
            step()
        kernels, peak = prof.kernels.count, prof.memory.peak_mib
        summary[level.name] = {"time s": prof.wall_time, "kernels": kernels, "tape MiB": peak}
        del model
    return summary


#: The per-quantity statistics ``dataset`` reports.
_STATS = {"min": np.min, "median": np.median, "mean": np.mean, "max": np.max}


def cmd_dataset(args: argparse.Namespace) -> dict:
    from repro.data import dataset_statistics, generate_mptrj

    with _setup("dataset"):
        entries = generate_mptrj(args.structures, seed=args.seed, max_atoms=args.max_atoms)
    summary = {"structures": args.structures, "max atoms": args.max_atoms}
    for name, arr in dataset_statistics(entries).items():
        summary[name] = {key: float(stat(arr)) for key, stat in _STATS.items()}
    return summary


COMMANDS = {
    "train": cmd_train,
    "md": cmd_md,
    "relax": cmd_relax,
    "farm": cmd_farm,
    "serve": cmd_serve,
    "profile": cmd_profile,
    "dataset": cmd_dataset,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    summary = COMMANDS[args.command](args)
    _report(summary)
    # A diverged --baseline or an unconverged relaxation fails the run.
    return int(summary.get("baseline") == "DIVERGED" or summary.get("converged") is False)


if __name__ == "__main__":
    sys.exit(main())
