"""One repetition of the benchmark's full run, in an interpreter of its own.

run.py starts this script once per repetition, so module-global caches
(such as the OPE prefix tables) start cold, and the peak resident memory
and set-up time belong to this repetition alone. It reads one JSON job
from standard input and prints one JSON object of measurements.

Job fields: ``spawned`` (the parent's ``time.monotonic()`` just before
starting this process), ``src`` (the directory holding the ``lp3pss``
package), ``config`` (the config dict), ``transcript`` (file to write
and re-read the transcript through, or null), ``trace`` (record spans),
``spans`` (file to write the spans to when tracing) and ``info`` (machine
and run details stored with the spans).
"""

import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def full_run(sim, recording, observability, config, transcript):
    """The timed operation; every call goes through a module or class attribute."""
    result = sim.run_simulation(config)
    report = result.report_json()
    computation = sim.verify_computation_counts(result)
    communication = sim.verify_communication_counts(result)
    reloaded = None
    if transcript is not None:
        with open(transcript, "w") as fh:
            result.recorder.dump_transcript(fh)
        with open(transcript) as fh:
            logs = recording.load_transcript(fh)
        reloaded = observability.check_leakage(logs)
    return result, report, computation, communication, reloaded


def install_spans(tracer, sim, entities, recording, observability, crypto):
    """Wrap each layer's public functions where the program looks them up."""
    for attr, name in (
        ("run_simulation", "sim.driver"),
        ("verify_computation_counts", "sim.verify_computation_counts"),
        ("verify_communication_counts", "sim.verify_communication_counts"),
        ("derive_pairwise_keys", "crypto.derive_pairwise_keys"),
        ("fc_init", "entities.init"),
        ("gw_init", "entities.init"),
        ("gw_ingest_init", "entities.init"),
        ("make_su_states", "entities.init"),
        ("su_sense_report", "entities.su_sense_report"),
        ("gw_compare", "entities.gw_compare"),
        ("fc_decide", "entities.fc_decide"),
        ("handle_membership", "entities.handle_membership"),
        ("generate_rss", "scenario.generate_rss"),
        ("apply_malice", "scenario.apply_malice"),
        ("churn_step", "scenario.churn_step"),
    ):
        tracer.patch(sim, attr, name)
    for attr, name in (
        ("ope_encrypt", "crypto.ope_encrypt"),
        ("aead_encrypt", "crypto.aead_encrypt"),
        ("aead_decrypt", "crypto.aead_decrypt"),
        ("fuse_votes", "fusion.fuse_votes"),
        ("update_reputation", "fusion.update_reputation"),
        ("compute_weights", "fusion.compute_weights"),
    ):
        tracer.patch(entities, attr, name)
    # run_simulation and the benchmark's transcript re-check share one wrapper.
    leakage = tracer.wrap("observability.check_leakage", observability.check_leakage)
    sim.check_leakage = leakage
    observability.check_leakage = leakage
    tracer.patch(recording, "load_transcript", "recording.load_transcript")
    tracer.patch(crypto.KeyTable, "add_user", "crypto.add_user")
    tracer.patch(sim.SimulationResult, "report_json", "sim.report_json")
    tracer.patch(recording.Recorder, "dump_transcript", "recording.dump_transcript")
    for attr in (
        "start_round",
        "set_phase",
        "crypto_op",
        "message_sent",
        "message_delivered",
        "observe",
        "protocol_error",
    ):
        tracer.patch(recording.Recorder, attr, "recording")


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])
    from lp3pss import crypto, entities, observability, recording, sim

    config = sim.config_from_dict(job["config"])
    config.resolve_channel()
    setup_s = time.monotonic() - job["spawned"]

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        install_spans(tracer, sim, entities, recording, observability, crypto)
    with tracer if tracer is not None else contextlib.nullcontext():
        t0, c0 = time.perf_counter(), time.process_time()
        result, report, computation, communication, reloaded = full_run(
            sim, recording, observability, config, job["transcript"]
        )
        wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0

    events = sum(len(log) for log in result.recorder.view_logs.values())
    checks = {
        "computation_counts": computation.ok,
        "communication_counts": communication.ok,
        "leakage_conforms": result.leakage.conforms,
    }
    transcript_bytes = 0
    if reloaded is not None:
        checks["transcript_verdict"] = (
            reloaded.conforms and reloaded.verdicts == result.leakage.verdicts
        )
        transcript_bytes = Path(job["transcript"]).stat().st_size
        Path(job["transcript"]).unlink()
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "user_rounds": sum(r.result.n_live for r in result.rounds),
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "checks": checks,
        "counts": {
            "recording.events": events,
            "recording.transcript_bytes": transcript_bytes,
            "sim.report_bytes": len(report.encode()),
            "entities.reports_missing": sum(
                len(r.roster) - len(r.delivered) for r in result.rounds
            ),
        },
    }
    if tracer is not None:
        out["layers"] = tracer.layer_totals()
        out["gc_gen2"] = tracer.gc_gen2
        tracer.write(Path(job["spans"]), job["info"])
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
