"""Command-line front end.

Subcommands:

* ``simulate`` — run the protocol and write the report JSON (and
  optionally the JSONL transcript);
* ``bench``    — run count/traffic conformance over a list of population
  sizes and join rates; non-zero exit on any mismatch;
* ``attack``   — run the SRLP and DLP oracles against the chosen scheme
  and check they behave as that scheme predicts;
* ``costs``    — evaluate the analytical cost formulas over schemes and
  population sizes into a CSV;
* ``verify``   — leakage-check a transcript file; the transcript must
  hold the fusion center, the gateway, a user and a decided round.

Exit status: 0 on success, 1 on conformance/leakage/attack-expectation
failure, 2 on bad flags or malformed input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from lp3pss import costs as costs_mod
from lp3pss import observability as obs
from lp3pss.observability import BASELINE, LP3PSS
from lp3pss.recording import iter_transcript
from lp3pss.scenario import ChurnConfig, CountRange
from lp3pss.sim import (
    ConfigError,
    SensingConfig,
    SimulationConfig,
    config_from_dict,
    estimate_error_rates,
    run_simulation,
    verify_communication_counts,
    verify_computation_counts,
)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lp3pss", description="Privacy-preserving cooperative spectrum sensing simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation and write the report")
    sim.add_argument("--config", type=Path, help="JSON config file (flags override)")
    sim.add_argument("--n", type=int, help="number of users")
    sim.add_argument("--rounds", type=int, help="sensing periods")
    sim.add_argument("--seed", type=int, required=True, help="run seed (no ambient randomness)")
    sim.add_argument("--churn-mu", type=float, help="membership-change probability per period")
    sim.add_argument("--loss-prob", type=float, help="per-report loss probability")
    sim.add_argument("--out", type=Path, required=True, help="report JSON path")
    sim.add_argument("--transcript", type=Path, help="also dump the JSONL transcript here")

    bench = sub.add_parser("bench", help="count/traffic conformance over a population sweep")
    bench.add_argument("--n", type=_int_list, default=[10, 100, 500], help="comma list of n")
    bench.add_argument("--beta", type=_int_list, default=[0, 5], help="comma list of joins per period")
    bench.add_argument("--rounds", type=int, default=3)
    bench.add_argument("--seed", type=int, required=True)

    attack = sub.add_parser("attack", help="run SRLP/DLP oracles against a scheme")
    attack.add_argument("--scheme", choices=[BASELINE, LP3PSS], required=True)
    attack.add_argument("--n", type=int, default=10)
    attack.add_argument("--seed", type=int, default=1)

    cost = sub.add_parser("costs", help="evaluate analytical cost formulas into a CSV")
    cost.add_argument(
        "--schemes",
        default="lp3pss,lpos,ppss,pdaft",
        help="comma list from lp3pss,lpos,ppss,pdaft",
    )
    cost.add_argument("--n", type=_int_list, default=[10, 100, 500], help="comma list of n")
    cost.add_argument("--out", type=Path, required=True)
    cost.add_argument("--blck", type=int, default=256, help="logical ciphertext bits")
    cost.add_argument("--gamma", type=int, default=10)
    cost.add_argument("--y", type=int, default=3)
    cost.add_argument("--mu", type=float, default=0.2)
    cost.add_argument("--beta", type=float, default=5.0)

    verify = sub.add_parser("verify", help="leakage-check a JSONL transcript")
    verify.add_argument("--transcript", type=Path, required=True)

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    raw: dict = {"sensing": {}}
    if args.config:
        raw = json.loads(args.config.read_text())
        # check the shape of what the flags below write into before writing
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        for section in ("sensing", "churn", "output"):
            if not isinstance(raw.get(section, {}), dict):
                raise ConfigError(f"{section}: expected an object")
        raw.setdefault("sensing", {})
    for key, value in (("n", args.n), ("rounds", args.rounds), ("seed", args.seed)):
        if value is not None:
            raw["sensing"][key] = value
    if args.loss_prob is not None:
        raw["sensing"]["report_loss_prob"] = args.loss_prob
    if args.churn_mu is not None:
        raw.setdefault("churn", {})["mu"] = args.churn_mu
    raw["sensing"].setdefault("n", 10)
    raw["sensing"].setdefault("rounds", 10)
    output = raw.pop("output", {})
    if not isinstance(output.get("transcript", ""), str):
        raise ConfigError("output.transcript: expected a path string")
    config = config_from_dict(raw)
    result = run_simulation(config)
    out_path = args.out
    out_path.write_text(result.report_json())
    transcript_path = args.transcript or (
        Path(output["transcript"]) if "transcript" in output else None
    )
    if transcript_path:
        with open(transcript_path, "w") as fh:
            result.recorder.dump_transcript(fh)
    rates = estimate_error_rates(result.rounds).to_dict()
    print(f"wrote {out_path} ({len(result.rounds)} rounds, n ends at {len(result.fc.live)})")
    print(f"leakage: {'conforms' if result.leakage.conforms else 'VIOLATES'}; error rates: {rates}")
    return 0 if result.leakage.conforms else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    failures = 0
    for n in args.n:
        for beta in args.beta:
            churn = (
                ChurnConfig(mu=1.0, join_count=CountRange(beta, beta), leave_count=CountRange(0, 0))
                if beta > 0
                else ChurnConfig(mu=0.0)
            )
            config = SimulationConfig(
                SensingConfig(n=n, rounds=args.rounds, seed=args.seed), churn=churn
            )
            result = run_simulation(config)
            comp = verify_computation_counts(result)
            comm = verify_communication_counts(result)
            ok = comp.ok and comm.ok and result.leakage.conforms
            status = "ok" if ok else "FAIL"
            print(f"n={n:4d} beta={beta}: computation={comp.ok} traffic={comm.ok} "
                  f"leakage={result.leakage.conforms} [{status}]")
            for line in (*comp.mismatches[:5], *comm.mismatches[:5]):
                print(f"    {line}")
            failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    failures = []
    if args.scheme == BASELINE:
        model, _ = SimulationConfig(SensingConfig(n=args.n, rounds=1, seed=args.seed)).resolve_channel()
        target = 1 + args.seed % args.n
        events, rosters, true_rss = obs.build_dlp_scenario(args.n, target, args.seed, model)
        exposed = obs.srlp_exposure(events)
        print(f"SRLP: exposed users at the fusion center: {sorted(exposed)}")
        if exposed != set(range(1, args.n + 1)):
            failures.append("SRLP should expose every reporter in the baseline")
        views = [obs.agg_view_from_logs(events, t, roster) for t, roster in enumerate(rosters, start=1)]
        dlp = obs.dlp_attack_oracle(views[0], views[1], target)
        print(f"DLP: target U{target} leaves; recovered RSS = {dlp.recovered} (true {true_rss})")
        if dlp.recovered != true_rss:
            failures.append("DLP should recover the exact RSS from the aggregate delta")
    else:
        # round 2 makes one real membership change: a leave, or a join
        # when the only user may not leave
        one, none = CountRange(1, 1), CountRange(0, 0)
        joins, leaves = (none, one) if args.n > 1 else (one, none)
        churn = ChurnConfig(mu=1.0, join_count=joins, leave_count=leaves)
        config = SimulationConfig(SensingConfig(n=args.n, rounds=2, seed=args.seed), churn=churn)
        result = run_simulation(config)
        exposed = obs.srlp_exposure(result.recorder.events)
        print(f"SRLP: exposed users: {sorted(exposed)}")
        if exposed:
            failures.append("no user's RSS may appear in a foreign view")
        changed = result.rounds[1]
        target = (changed.leaves or changed.joins)[0]
        views = [obs.agg_view_from_logs(result.recorder.events, r.t, set(r.roster)) for r in result.rounds]
        dlp = obs.dlp_attack_oracle(views[0], views[1], target)
        print(f"DLP: recovered = {dlp.recovered} ({dlp.reason})")
        if dlp.recovered is not None:
            failures.append("DLP must fail: no aggregate exists in any view")
    for line in failures:
        print(f"FAIL: {line}")
    return 1 if failures else 0


def _cmd_costs(args: argparse.Namespace) -> int:
    schemes = [s.strip().lower() for s in args.schemes.split(",") if s.strip()]
    unknown = [s for s in schemes if s not in costs_mod.SCHEMES]
    if unknown:
        print(f"unknown scheme(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    params = costs_mod.AnalyticalCostParams(
        blck_bits=args.blck, gamma=args.gamma, y=args.y, mu=args.mu, beta=args.beta
    )
    rows = costs_mod.cost_rows(schemes, args.n, params)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["scheme", "n", "entity", "primitive", "count", "comm_bits"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows over {len(schemes)} schemes x {len(args.n)} sizes)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # One pass over the file, keeping per-entity state and the violations
    # only. Nothing is printed before the pass ends, so a malformed or
    # incomplete file prints no verdicts, wherever its fault lies.
    completeness = obs.Completeness()
    try:
        with open(args.transcript) as fh:
            report = obs.check_leakage(completeness.watch(iter_transcript(fh)))
    except OSError as exc:
        print(f"cannot read transcript: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"malformed transcript: {exc}", file=sys.stderr)
        return 2
    try:
        completeness.require()
    except ValueError as exc:
        print(f"cannot check transcript: {exc}", file=sys.stderr)
        return 2
    for entity in sorted(report.verdicts):
        print(f"{entity}: {report.verdicts[entity]}")
    for violation in report.violations:
        print(f"VIOLATION at {violation.entity} (round {violation.event.round}): "
              f"{violation.reason} [{violation.event.tag} {violation.event.meta}]")
    return 0 if report.conforms else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "simulate": _cmd_simulate,
        "bench": _cmd_bench,
        "attack": _cmd_attack,
        "costs": _cmd_costs,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
