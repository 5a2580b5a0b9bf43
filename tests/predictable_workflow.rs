//! Integration: the full Fig. 1 workflow across every crate, on both
//! shipped predictable use cases.

use teamplay::predictable::{
    MeasureConfig, PredictableOutcome, PredictableWorkflow, WorkflowConfig,
};
use teamplay_compiler::FpaConfig;
use teamplay_contracts::verify_certificate;
use teamplay_sim::{Machine, RecordingDevice};

fn quick(config: WorkflowConfig) -> PredictableWorkflow {
    let mut config = config;
    config.fpa = FpaConfig::tiny();
    config.leakage_traces = 24;
    PredictableWorkflow::new(config)
}

#[test]
fn camera_pill_certifies_and_the_binary_behaves() {
    let outcome = quick(WorkflowConfig::pg32())
        .run(teamplay_apps::camera_pill::SOURCE)
        .expect("workflow");
    verify_certificate(&outcome.certificate, &outcome.evidence).expect("verifies");

    // The certified binary still computes the right pipeline.
    let mut machine = Machine::new(outcome.program.clone()).expect("loads");
    let mut dev = teamplay_apps::camera_pill::frame_device(3);
    for (task, _) in teamplay_apps::camera_pill::TASKS {
        let args: &[i32] = if task == "encrypt" { &[5] } else { &[] };
        machine.call(task, args, &mut dev).expect("task runs");
    }
    assert_eq!(
        dev.outputs.len(),
        teamplay_apps::camera_pill::PACKED_WORDS + 1,
        "cipher payload + checksum"
    );
}

#[test]
fn spacewire_certifies_on_the_leon3_target() {
    let outcome = quick(WorkflowConfig::leon3())
        .run(teamplay_apps::spacewire::SOURCE)
        .expect("workflow");
    verify_certificate(&outcome.certificate, &outcome.evidence).expect("verifies");
    assert!(outcome.schedule.makespan_us <= teamplay_apps::spacewire::FRAME_DEADLINE_US);

    // Glue code covers the whole DAG.
    for t in &outcome.tasks {
        assert!(outcome.glue.contains(&format!("task_{}", t.name)));
    }
}

#[test]
fn certificate_transports_as_json_and_rejects_tampering() {
    let outcome = quick(WorkflowConfig::pg32())
        .run(teamplay_apps::camera_pill::SOURCE)
        .expect("workflow");
    let json = outcome.certificate.to_json();
    let parsed = teamplay_contracts::Certificate::from_json(&json).expect("parses");
    verify_certificate(&parsed, &outcome.evidence).expect("round-tripped certificate verifies");

    // Any figure change must be caught by the independent checker.
    let tampered_json = json.replacen("\"analysed_us\":", "\"analysed_us\": 0.5, \"x\":", 1);
    if let Ok(tampered) = teamplay_contracts::Certificate::from_json(&tampered_json) {
        assert!(
            verify_certificate(&tampered, &outcome.evidence).is_err(),
            "tampered certificate must not verify"
        );
    }
}

#[test]
fn workflow_binary_runs_with_machine_io() {
    // Port-level check on the quickstart-style app: the toolchain output
    // is a real program, not just analysis results.
    let src = r#"
        /*@ task echo period(10ms) deadline(10ms) wcet_budget(1ms) energy_budget(300uJ) @*/
        void echo() {
            int v = __in(3);
            __out(4, v * 2 + 1);
            return;
        }
    "#;
    let outcome = quick(WorkflowConfig::pg32()).run(src).expect("workflow");
    let mut machine = Machine::new(outcome.program).expect("loads");
    let mut dev = RecordingDevice::new();
    dev.queue(3, [20]);
    machine.call("echo", &[], &mut dev).expect("runs");
    assert_eq!(dev.outputs, vec![(4, 41)]);
}

/// The certified artefacts of one run, serialized field by field.
fn artefacts(outcome: &PredictableOutcome) -> [(&'static str, String); 6] {
    let expect = |r: Result<String, serde_json::Error>| r.expect("serializes");
    [
        ("program", expect(serde_json::to_string(&outcome.program))),
        ("certificate", outcome.certificate.to_json()),
        ("schedule", expect(serde_json::to_string(&outcome.schedule))),
        ("tasks", expect(serde_json::to_string(&outcome.tasks))),
        (
            "measurements",
            expect(serde_json::to_string(&outcome.measurements)),
        ),
        ("glue", outcome.glue.clone()),
    ]
}

#[test]
fn warm_store_reruns_match_cold_and_storeless_runs() {
    // Warm ≡ cold for the whole workflow: a run that fills a fresh
    // store, a rerun warm-started from it (metrics from disk, front
    // programs rebuilt on demand) and a run with no store certify
    // byte-identical artefacts. camera_pill's constant-time task
    // exercises ladderisation and leakage; spacewire the LEON3 target.
    for (app, source, target) in [
        (
            "camera_pill",
            teamplay_apps::camera_pill::SOURCE,
            WorkflowConfig::pg32(),
        ),
        (
            "spacewire",
            teamplay_apps::spacewire::SOURCE,
            WorkflowConfig::leon3(),
        ),
    ] {
        for width in [1, 2] {
            let pool = minipool::Pool::new(width);
            let dir = std::env::temp_dir().join(format!(
                "teamplay-workflow-warm-{}-{app}-{width}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let run = |store: Option<&std::path::Path>| {
                let mut config = target.clone();
                config.fpa = FpaConfig::tiny();
                config.leakage_traces = 24;
                config.measure = Some(MeasureConfig {
                    runs: 4,
                    ..MeasureConfig::standard()
                });
                config.store_dir = store.map(|d| d.display().to_string());
                PredictableWorkflow::new(config)
                    .run_on(&pool, source)
                    .expect("workflow")
            };
            let fill = run(Some(&dir));
            let warm = run(Some(&dir));
            let storeless = run(None);
            let _ = std::fs::remove_dir_all(&dir);

            assert_eq!(fill.search.disk_hits, 0, "{app}/{width}: fresh store hit");
            assert_eq!(fill.search.program_builds, 0, "{app}/{width}: cold rebuilt");
            assert_eq!(warm.search.disk_misses, 0, "{app}/{width}: warm compiled");
            let offered: usize = warm.tasks.iter().map(|t| t.variants_offered).sum();
            assert!(
                (1..=offered).contains(&warm.search.program_builds),
                "{app}/{width}: {} rebuilds for {offered} front variants",
                warm.search.program_builds
            );
            let reference = artefacts(&storeless);
            for (label, outcome) in [("fill", &fill), ("warm", &warm)] {
                for ((field, got), (_, want)) in artefacts(outcome).iter().zip(&reference) {
                    assert!(
                        got == want,
                        "{app}/{width}: {label} run's {field} differs from the store-less run"
                    );
                }
            }
        }
    }
}
