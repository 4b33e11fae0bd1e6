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
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="train a model on synthetic MPtrj")
    p.add_argument("--variant", choices=("chgnet", "fast", "fast-wo-head"), default="fast")
    p.add_argument("--structures", type=int, default=80)
    p.add_argument("--max-atoms", type=int, default=10)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=None, help="default: 3e-4 (or Eq. 14 with --scale-lr)")
    p.add_argument("--scale-lr", action="store_true", help="apply the Eq. 14 scaling rule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default="", help="save trained weights to this .npz path")
    p.add_argument(
        "--compile",
        action="store_true",
        help="compile-once training steps: batches flow through the "
        "size-sorted bucket sampler, pad to a few exact shapes planned "
        "over the fixed blocks, and the forward/loss/backward tape is "
        "captured once per shape (the largest up front), then replayed with "
        "arena buffers and fused kernels (bit-identical gradients, "
        "automatic eager fallback); with --world-size > 1 all simulated "
        "ranks share one program cache and rebind their own weights per "
        "replay, so a shape is captured once in total",
    )
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
        help="simulated data-parallel ranks; > 1 trains through the "
        "DistributedTrainer (--batch-size becomes the global batch, Eq. 14 "
        "LR scaling applies unless --lr is given)",
    )
    p.add_argument(
        "--n-buckets",
        type=int,
        default=8,
        help="gradient buckets for the overlapped allreduce flush "
        "(distributed runs only)",
    )
    p.add_argument(
        "--state",
        default="",
        help="save a full training-state checkpoint (model + optimizer "
        "moments + schedule + data cursor, CRC-validated atomic write) to "
        "this path while training; required by --inject-fault",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="training-state checkpoint cadence: every N steps for "
        "distributed runs, every N epochs for single-device runs "
        "(with --state)",
    )
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
        "distributed runs only): kill:RANK:STEP kills a rank at a global "
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
    p.add_argument("--structure", choices=("LiMnO2", "LiTiPO5", "Li9Co7O16"), default="LiMnO2")
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--timestep", type=float, default=1.0, help="femtoseconds")
    p.add_argument("--temperature", type=float, default=300.0, help="kelvin")
    p.add_argument("--calculator", choices=("oracle", "fast", "chgnet"), default="oracle")
    p.add_argument("--checkpoint", default="", help="load model weights from this .npz path")
    p.add_argument(
        "--skin",
        type=float,
        default=0.0,
        help="Verlet skin radius in angstroms (model calculators only): reuse "
        "the neighbor search across steps until an atom moves > skin/2",
    )
    p.add_argument(
        "--compile",
        action="store_true",
        help="compiled MD inference (model calculators only): capture the "
        "model evaluation tape once per graph-shape bucket and replay it "
        "each step instead of re-taping the model",
    )


def _add_relax(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("relax", help="FIRE relaxation of a Table II structure")
    p.add_argument("--structure", choices=("LiMnO2", "LiTiPO5", "Li9Co7O16"), default="LiMnO2")
    p.add_argument("--calculator", choices=("oracle", "fast", "chgnet"), default="oracle")
    p.add_argument("--checkpoint", default="", help="load model weights from this .npz path")
    p.add_argument(
        "--fmax",
        type=float,
        default=0.05,
        help="convergence tolerance on the max per-atom force norm (eV/A)",
    )
    p.add_argument("--max-steps", type=int, default=500, help="force-evaluation budget")
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
    p.add_argument(
        "--skin",
        type=float,
        default=0.0,
        help="Verlet skin radius in angstroms (model calculators only): reuse "
        "the neighbor search across steps until an atom moves > skin/2",
    )
    p.add_argument(
        "--compile",
        action="store_true",
        help="compiled single-point inference (model calculators only)",
    )


def _add_farm(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "farm", help="lockstep trajectory farm (mixed relax/MD) over the engine"
    )
    p.add_argument("--trajectories", type=int, default=16, help="total trajectory count")
    p.add_argument(
        "--structures", type=int, default=8, help="candidate pool size (trajectories cycle it)"
    )
    p.add_argument("--max-atoms", type=int, default=8)
    p.add_argument(
        "--md-fraction",
        type=float,
        default=0.5,
        help="fraction of trajectories run as NVT MD (the rest relax with FIRE)",
    )
    p.add_argument("--steps", type=int, default=20, help="MD steps per MD trajectory")
    p.add_argument(
        "--fmax", type=float, default=0.05, help="relaxation convergence tolerance (eV/A)"
    )
    p.add_argument(
        "--max-steps", type=int, default=50, help="relaxation force-evaluation budget"
    )
    p.add_argument("--temperature", type=float, default=300.0, help="MD thermostat target (K)")
    p.add_argument("--workers", type=int, default=2, help="simulated serving workers")
    p.add_argument(
        "--batch-structs", type=int, default=8, help="engine micro-batch flush threshold"
    )
    p.add_argument(
        "--skin",
        type=float,
        default=1.0,
        help="per-trajectory Verlet skin radius in angstroms (0: rebuild the "
        "neighbor list every step)",
    )
    p.add_argument("--variant", choices=("chgnet", "fast", "fast-wo-head"), default="fast")
    p.add_argument("--checkpoint", default="", help="load model weights from this .npz path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--compile",
        action="store_true",
        help="compiled wave inference: each wave's micro-batches replay cached "
        "programs (bit-identical to eager)",
    )
    p.add_argument(
        "--baseline",
        action="store_true",
        help="also run the sequential per-trajectory eager loop and report the "
        "structure-steps/s speedup plus a per-frame bitwise equality check",
    )
    p.add_argument(
        "--state",
        default="",
        metavar="PATH",
        help="checkpoint the farm's full per-trajectory state (RCKPT1 "
        "atomic-CRC format) to this path at wave boundaries; a crashed run "
        "restarted with --resume finishes bit-identical to an uninterrupted "
        "one",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint every N stepping waves (with --state); a crash "
        "loses at most N waves of work",
    )
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
    p.add_argument("--workers", type=int, default=2, help="simulated serving workers")
    p.add_argument(
        "--batch-structs", type=int, default=8, help="micro-batch flush threshold"
    )
    p.add_argument(
        "--structures", type=int, default=16, help="candidate pool size (requests cycle it)"
    )
    p.add_argument("--max-atoms", type=int, default=10)
    p.add_argument("--variant", choices=("chgnet", "fast", "fast-wo-head"), default="fast")
    p.add_argument("--checkpoint", default="", help="load model weights from this .npz path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--compile",
        action="store_true",
        help="replay cached inference programs: micro-batches are ghost-padded "
        "to canonical workload tiers so nearly every batch replays one shared "
        "program (bit-identical to eager per-request inference)",
    )
    p.add_argument(
        "--baseline",
        action="store_true",
        help="also time eager per-request inference and report the speedup "
        "plus a bitwise equality check",
    )
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the stream this many times (pass 2+ runs against a warm "
        "program cache; each pass is timed separately)",
    )
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
    p.add_argument("--structures", type=int, default=50)
    p.add_argument("--max-atoms", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_train(sub)
    _add_md(sub)
    _add_relax(sub)
    _add_farm(sub)
    _add_serve(sub)
    _add_profile(sub)
    _add_dataset(sub)
    return parser


def _fault_plan(args: argparse.Namespace):
    """Parse ``--inject-fault`` specs, validating their prerequisites."""
    if not args.inject_fault:
        return None
    from repro.comm import FaultPlan

    if args.world_size <= 1:
        raise SystemExit("--inject-fault requires --world-size > 1")
    if not args.state:
        raise SystemExit("--inject-fault requires --state (recovery needs a checkpoint)")
    try:
        return FaultPlan.parse(args.inject_fault)
    except ValueError as exc:
        raise SystemExit(f"--inject-fault: {exc}")


def _train_distributed(args: argparse.Namespace, splits, model_factory) -> object:
    """Train through the simulated data-parallel path; returns the model."""
    from repro.train import DistributedConfig, DistributedTrainer, run_elastic

    if args.batch_size % args.world_size != 0:
        raise SystemExit(
            f"--batch-size {args.batch_size} must be divisible by "
            f"--world-size {args.world_size}"
        )
    if args.checkpoint_every < 1:
        raise SystemExit(f"--checkpoint-every must be >= 1, got {args.checkpoint_every}")
    cfg = DistributedConfig(
        world_size=args.world_size,
        global_batch_size=args.batch_size,
        epochs=args.epochs,
        learning_rate=args.lr,
        scale_lr=args.scale_lr,
        seed=args.seed,
        compile=args.compile,
        n_buckets=args.n_buckets,
    )
    plan = _fault_plan(args)
    if args.resume:
        trainer = DistributedTrainer.resume(
            args.resume, model_factory, splits.train, cfg, fault_plan=plan
        )
        print(
            f"resumed from {args.resume}: epoch {trainer._epoch}, "
            f"global step {trainer.global_step}"
        )
        trainer.train(
            checkpoint_path=args.state or None,
            checkpoint_every=args.checkpoint_every,
        )
    elif plan is not None:
        result = run_elastic(
            model_factory,
            splits.train,
            cfg,
            checkpoint_path=args.state,
            checkpoint_every=args.checkpoint_every,
            fault_plan=plan,
            shrink=not args.no_shrink,
        )
        trainer = result.trainer
        for f in result.failures:
            print(
                f"rank {f.rank} failed at step {f.step}: world "
                f"{f.world_before} -> {f.world_after}, {f.steps_lost} steps "
                f"redone, resume {f.resume_seconds * 1e3:.1f} ms"
            )
        if trainer.flush_retries:
            print(
                f"flush retries: {trainer.flush_retries} "
                f"(backoff {trainer.backoff_seconds * 1e3:.1f} ms)"
            )
    else:
        trainer = DistributedTrainer(model_factory, splits.train, cfg)
        trainer.train(
            checkpoint_path=args.state or None,
            checkpoint_every=args.checkpoint_every,
        )
    # trainer.steps belongs to the final trainer instance (a resumed or
    # elastically rebuilt run only records its own steps), so summarize
    # rather than pretending to a full per-epoch history.
    if trainer.steps:
        loss = float(np.mean([r.loss for r in trainer.steps[-len(trainer.loader) :]]))
        e_mae = float(
            np.mean([r.energy_mae for r in trainer.steps[-len(trainer.loader) :]])
        )
        print(
            f"{trainer.global_step} global steps x {trainer.config.world_size} ranks, "
            f"last-epoch loss={loss:.4f} E={e_mae * 1e3:7.1f}meV/atom",
            flush=True,
        )
    if args.state:
        print(f"training state checkpointed to {args.state}")
    print(f"replicas in sync: {trainer.replicas_in_sync()}")
    stats = trainer.compile_stats()
    if stats is not None:
        print(
            f"compiled rank steps: {stats['replays']} replays / "
            f"{stats['captures']} captures / {stats['eager_fallbacks']} eager fallbacks"
        )
    return trainer.model


def cmd_train(args: argparse.Namespace) -> int:
    from repro.data import generate_mptrj, split_dataset
    from repro.model import CHGNet, FastCHGNet
    from repro.train import TrainConfig, Trainer, evaluate

    if args.inject_fault and args.world_size <= 1:
        raise SystemExit("--inject-fault requires --world-size > 1")
    entries = generate_mptrj(args.structures, seed=args.seed, max_atoms=args.max_atoms)
    splits = split_dataset(entries, seed=args.seed, n_workers=args.n_workers)

    def model_factory():
        rng = np.random.default_rng(args.seed + 7)
        if args.variant == "chgnet":
            return CHGNet(rng)
        if args.variant == "fast-wo-head":
            return FastCHGNet(rng, use_heads=False)
        return FastCHGNet(rng)

    model = model_factory()
    print(f"{args.variant}: {model.num_parameters():,} parameters")
    if args.world_size > 1:
        model = _train_distributed(args, splits, model_factory)
    else:
        if args.checkpoint_every < 1:
            raise SystemExit(
                f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
            )
        config = TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.lr,
            scale_lr=args.scale_lr,
            seed=args.seed,
            compile=args.compile,
        )
        if args.resume:
            trainer = Trainer.resume(
                args.resume, model, splits.train, val_dataset=splits.val, config=config
            )
            print(f"resumed from {args.resume}: epoch {trainer._epoch}")
        else:
            trainer = Trainer(model, splits.train, val_dataset=splits.val, config=config)
        if args.state:
            trainer.add_checkpoint_hook(args.state, every=args.checkpoint_every)
        trainer.train(verbose=True)
        if args.state:
            print(f"training state checkpointed to {args.state}")
        if args.compile and trainer.compiler is not None:
            stats = trainer.compiler.stats
            print(
                f"compiled steps: {stats.replays} replays / {stats.captures} captures "
                f"/ {stats.eager_fallbacks} eager fallbacks"
            )
    result, _ = evaluate(model, splits.test)
    print("| model | E (meV/atom) | F (meV/A) | S | M (m-muB) |")
    print(result.row(args.variant))
    if args.checkpoint:
        model.save(args.checkpoint)
        print(f"saved {args.checkpoint}")
    return 0


def cmd_md(args: argparse.Namespace) -> int:
    from repro.md import MolecularDynamics
    from repro.structures import named_structures

    crystal = named_structures()[args.structure]
    calc = _model_calculator(args)
    md = MolecularDynamics(
        crystal, calc, timestep_fs=args.timestep, temperature_k=args.temperature, seed=0
    )
    result = md.run(args.steps)
    print(f"{args.structure}: {crystal.num_atoms} atoms, {args.steps} steps")
    for rec in result.records:
        print(
            f"  step {rec.step:3d}  E_pot {rec.potential_energy:10.4f} eV  "
            f"T {rec.temperature:7.1f} K  {rec.step_seconds * 1e3:7.1f} ms/step"
        )
    print(f"mean step time: {result.mean_step_seconds * 1e3:.1f} ms")
    return 0


def _model_calculator(args: argparse.Namespace):
    """Oracle or model calculator from the shared --calculator flags."""
    from repro.md import ModelCalculator, OracleCalculator
    from repro.model import CHGNet, FastCHGNet

    if args.calculator == "oracle":
        if args.skin:
            print("warning: --skin only applies to model calculators; ignored")
        if args.compile:
            print("warning: --compile only applies to model calculators; ignored")
        return OracleCalculator()
    rng = np.random.default_rng(0)
    model = FastCHGNet(rng) if args.calculator == "fast" else CHGNet(rng)
    if args.checkpoint:
        model.load(args.checkpoint)
    return ModelCalculator(model, skin=args.skin, compile=args.compile)


def cmd_relax(args: argparse.Namespace) -> int:
    from repro.md import FIRE, FIREConfig
    from repro.structures import named_structures

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
    config.validate()
    result = FIRE(config).relax(crystal, calc)
    print(
        f"{args.structure}: {crystal.num_atoms} atoms, "
        f"perturbed {args.perturb:.3f} A, fmax tolerance {args.fmax} eV/A"
    )
    stride = max(1, len(result.records) // 10)
    for rec in result.records:
        if rec.step % stride == 0 or rec.step == result.n_steps:
            print(
                f"  step {rec.step:4d}  E {rec.energy:10.4f} eV  "
                f"fmax {rec.fmax:8.4f} eV/A  dt {rec.dt:5.3f} fs"
            )
    status = "converged" if result.converged else "NOT converged"
    print(
        f"{status} in {result.n_steps} steps: E {result.state.potential_energy:.4f} eV, "
        f"fmax {result.state.fmax:.4f} eV/A"
    )
    return 0 if result.converged else 1


def cmd_farm(args: argparse.Namespace) -> int:
    import time

    from repro.data import generate_mptrj
    from repro.md import (
        FIREConfig,
        MDSpec,
        ModelCalculator,
        RelaxSpec,
        TrajectoryFarm,
        run_sequential,
    )
    from repro.model import CHGNet, FastCHGNet
    from repro.serve import InferenceEngine

    if not 0 <= args.md_fraction <= 1:
        raise SystemExit(f"--md-fraction must lie in [0, 1], got {args.md_fraction}")
    if args.resume and not args.state:
        raise SystemExit("--resume requires --state (the checkpoint to resume from)")
    if args.checkpoint_every < 1:
        raise SystemExit(
            f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )
    rng = np.random.default_rng(args.seed)
    if args.variant == "chgnet":
        model = CHGNet(rng)
    elif args.variant == "fast-wo-head":
        model = FastCHGNet(rng, use_heads=False)
    else:
        model = FastCHGNet(rng)
    if args.checkpoint:
        model.load(args.checkpoint)

    pool = generate_mptrj(args.structures, seed=args.seed, max_atoms=args.max_atoms)
    n_md = int(round(args.md_fraction * args.trajectories))
    fire = FIREConfig(fmax=args.fmax, max_steps=args.max_steps)
    specs = []
    for i in range(args.trajectories):
        crystal = pool[i % len(pool)].crystal.perturbed(
            np.random.default_rng(args.seed + 100 + i), 0.03
        )
        if i < n_md:
            specs.append(
                MDSpec(
                    crystal,
                    args.steps,
                    temperature_k=args.temperature,
                    seed=args.seed + i,
                    rescale_every=5,
                )
            )
        else:
            specs.append(RelaxSpec(crystal, fire))

    # Shrinking waves visit many distinct group sizes (each one a program
    # signature), so give the cache plenty of headroom over the default 16.
    engine = InferenceEngine(
        model,
        n_workers=args.workers,
        compile=args.compile,
        max_batch_structs=args.batch_structs,
        max_programs=256,
    )
    if args.resume:
        farm = TrajectoryFarm.resume(args.state, engine)
        print(f"resumed {len(farm)} trajectories from {args.state}")
    else:
        farm = TrajectoryFarm(engine, skin=args.skin, record=args.baseline)
        for spec in specs:
            farm.add(spec)
    t0 = time.perf_counter()
    result = farm.run(
        max_waves=args.max_waves or None,
        checkpoint_path=args.state or None,
        checkpoint_every=args.checkpoint_every,
    )
    wall = time.perf_counter() - t0
    stats = result.stats
    n_relax = args.trajectories - n_md
    converged = sum(1 for r in result.results if r.kind == "relax" and r.converged)
    rate = stats.structure_steps / wall if wall > 0 else float("inf")
    print(
        f"{args.trajectories} trajectories ({n_md} MD x {args.steps} steps, "
        f"{n_relax} relax @ fmax {args.fmax}): {stats.structure_steps} "
        f"structure-steps in {wall:.3f}s ({rate:.1f} steps/s)"
    )
    print(
        f"  {stats.waves} waves (sizes {stats.wave_sizes[0]} -> {stats.wave_sizes[-1]}), "
        f"{stats.evaluations} evaluations, {converged}/{n_relax} relaxations converged"
    )
    if args.state:
        print(f"  farm state checkpointed to {args.state} (RCKPT1, resumable)")
    print(
        f"  neighbor cache: {stats.neighbor_builds} builds / "
        f"{stats.neighbor_reuses} reuses; angle arrays: "
        f"{stats.diff.angle_reuses} reused / {stats.diff.angle_diffs} diffed / "
        f"{stats.diff.angle_rebuilds} rebuilt"
    )
    if args.compile:
        snap = engine.snapshot()
        print(
            f"  program cache: {snap['replays']} replays / {snap['captures']} captures "
            f"(hit rate {snap['hit_rate'] * 100:.1f}%)"
        )
    if args.baseline:
        calc = ModelCalculator(model)
        t0 = time.perf_counter()
        base = run_sequential(specs, calc, record=True)
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
        base_rate = stats.structure_steps / base_wall if base_wall > 0 else float("inf")
        print(
            f"  sequential eager baseline: {base_rate:.1f} steps/s -> "
            f"speedup {base_wall / wall:.2f}x, "
            f"{'bit-identical' if identical else 'DIVERGED'}"
        )
        if not identical:
            return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.data import generate_mptrj
    from repro.graph.crystal_graph import build_graph
    from repro.model import CHGNet, FastCHGNet
    from repro.serve import (
        AutoscaleConfig,
        DeadlineExceeded,
        EngineOverloaded,
        InferenceEngine,
        TenantPolicy,
        WorkerFailure,
        WorkerFaultPlan,
    )

    fault_plan = None
    if args.inject_worker_fault:
        try:
            fault_plan = WorkerFaultPlan.parse(args.inject_worker_fault)
        except ValueError as exc:
            raise SystemExit(f"--inject-worker-fault: {exc}")
    if args.max_retries < 0:
        raise SystemExit(f"--max-retries must be non-negative, got {args.max_retries}")
    if args.deadline < 0:
        raise SystemExit(f"--deadline must be non-negative, got {args.deadline}")
    tenants = None
    if args.tenants:
        try:
            tenants = [TenantPolicy.parse(spec) for spec in args.tenants.split(",")]
        except ValueError as exc:
            raise SystemExit(f"--tenants: {exc}")
    if args.sla < 0:
        raise SystemExit(f"--sla must be non-negative, got {args.sla}")
    if args.autoscale < 0:
        raise SystemExit(f"--autoscale must be non-negative, got {args.autoscale}")
    if args.autoscale and args.autoscale < args.workers:
        raise SystemExit(
            f"--autoscale ceiling ({args.autoscale}) must be >= --workers "
            f"({args.workers})"
        )

    rng = np.random.default_rng(args.seed)
    if args.variant == "chgnet":
        model = CHGNet(rng)
    elif args.variant == "fast-wo-head":
        model = FastCHGNet(rng, use_heads=False)
    else:
        model = FastCHGNet(rng)
    if args.checkpoint:
        model.load(args.checkpoint)

    pool = generate_mptrj(args.structures, seed=args.seed, max_atoms=args.max_atoms)
    graphs = [
        build_graph(e.crystal, model.config.cutoff_atom, model.config.cutoff_bond)
        for e in pool
    ]
    stream = [graphs[i % len(graphs)] for i in range(args.requests)]

    max_wait = 0.05  # the engine default, spelled out so --sla can scale to it
    autoscale = None
    if args.autoscale:
        autoscale = AutoscaleConfig(
            sla_p95=args.sla if args.sla > 0 else max_wait / 2.0,
            max_workers=args.autoscale,
            min_workers=args.workers,
        )
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
        start = max(engine._now, engine.makespan())
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
                        now=start + i * dt,
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
            if request_id is None:
                out.append(None)
                continue
            try:
                out.append(engine.poll(request_id))
            except (DeadlineExceeded, WorkerFailure):
                out.append(None)
        return out

    best_wall = float("inf")
    captures_cold = None
    for rep in range(max(1, args.repeat)):
        t0 = time.perf_counter()
        preds = _drive_queue(stream) if use_queue else engine.predict_many(stream)
        wall = time.perf_counter() - t0
        best_wall = min(best_wall, wall)
        served = sum(p is not None for p in preds)
        label = "cold" if rep == 0 else "warm"
        print(
            f"pass {rep + 1} ({label}): {served}/{len(preds)} requests in "
            f"{wall:.3f}s ({served / wall:.1f} structs/s)"
        )
        if rep == 0 and args.compile:
            captures_cold = engine.snapshot()["captures"]
    snap = engine.snapshot()
    print(
        f"served over {args.workers} workers, "
        f"{snap['batches']} batches total"
    )
    if args.publish_every:
        line = f"published {snap['publishes'] - 1} new weight versions mid-stream"
        if captures_cold is not None and args.repeat > 1:
            # Warm passes republish on the same schedule; any recapture
            # would show up as capture growth past the cold pass.
            line += (
                f" ({snap['captures'] - captures_cold} captures across "
                f"{args.repeat - 1} warm publishing passes: publishes rebind, "
                "never recapture)"
            )
        print(line)
    if args.merge_tiers:
        print(
            f"adaptive merging absorbed {snap['merges']} requests across tiers "
            f"({snap['merged_batches']} mixed-tier batches, "
            f"padding overhead {snap['padding_overhead'] * 100:.1f}%)"
        )
    if args.memoize:
        print(
            f"collate memoization: {snap['collate_hits']} hits / "
            f"{snap['collate_misses']} misses"
        )
    if fault_plan is not None or args.hedge or args.deadline:
        print(
            f"fault tolerance: {snap['worker_failures']} worker failures, "
            f"{snap['retries']} retries, {snap['worker_replacements']} "
            f"replacements, {snap['hedges']} hedges ({snap['hedge_wins']} "
            f"won), {snap['deadline_misses']} deadline misses"
        )
        if fault_plan is not None and fault_plan.unfired():
            print(f"  warning: planned faults never fired: {fault_plan.unfired()}")
    if tenants is not None or args.request_class != "bulk":
        for name in sorted(snap["tenants"]):
            block = snap["tenants"][name]
            print(
                f"tenant {name} (weight {engine.tenants[name].weight:g}): "
                f"{block['served']} served, {block['shed']} shed, "
                f"{block['expired']} expired, "
                f"p95 {block['latency_p95'] * 1e3:.1f} ms"
            )
        for cls in sorted(snap["class_latency_p95"]):
            print(
                f"class {cls}: modeled p95 "
                f"{snap['class_latency_p95'][cls] * 1e3:.1f} ms"
            )
    if autoscale is not None:
        print(
            f"autoscale: +{snap['scale_outs']} scale-outs / "
            f"-{snap['scale_ins']} scale-ins, final fleet size {engine.fleet_size}"
        )
    print(
        f"modeled latency p50 {snap['latency_p50'] * 1e3:.1f} ms, "
        f"p95 {snap['latency_p95'] * 1e3:.1f} ms"
    )
    if args.compile:
        print(
            f"program cache: {snap['replays']} replays / {snap['captures']} captures "
            f"/ {snap['eager_fallbacks']} eager fallbacks "
            f"(hit rate {snap['hit_rate'] * 100:.1f}%)"
        )
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
        print(
            f"eager per-request baseline: {len(base) / base_wall:.1f} structs/s "
            f"-> best-pass speedup {base_wall / best_wall:.2f}x"
            f"{' (cold pass only; use --repeat for warm-cache numbers)' if args.repeat <= 1 and args.compile else ''}, "
            f"{'bit-identical' if identical else 'DIVERGED'}"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.data import generate_mptrj, split_dataset
    from repro.model import CHGNetConfig, CHGNetModel, OptLevel
    from repro.runtime import device_profile
    from repro.train import Adam, CompositeLoss

    entries = generate_mptrj(args.structures, seed=2, max_atoms=10)
    splits = split_dataset(entries, seed=0, fractions=(0.8, 0.1, 0.1))
    batch = splits.train.batch(np.arange(min(args.batch_size, len(splits.train))))
    print(f"{'level':16s} {'time (s)':>9s} {'kernels':>8s} {'tape MiB':>9s}")
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
        print(
            f"{level.name:16s} {prof.wall_time:9.3f} {prof.kernels.count:8d} "
            f"{prof.memory.peak_mib:9.1f}"
        )
        del model
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    from repro.data import dataset_statistics, generate_mptrj

    entries = generate_mptrj(args.structures, seed=args.seed, max_atoms=args.max_atoms)
    stats = dataset_statistics(entries)
    print(f"{args.structures} structures (max {args.max_atoms} atoms):")
    for name, arr in stats.items():
        print(
            f"  {name:7s} min {arr.min():6d}  median {int(np.median(arr)):6d}  "
            f"mean {arr.mean():8.1f}  max {arr.max():6d}"
        )
    return 0


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
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
