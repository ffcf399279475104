//! End-to-end: record real spans/counters/logs, export JSONL, and check
//! the emitted text against the in-tree schema validator and the
//! span-tree fold.

use mcds_obs::profile::Profile;
use mcds_obs::schema::validate_trace;

#[test]
fn emitted_trace_round_trips_through_the_schema_validator() {
    mcds_obs::test_support::with_enabled(true, || {
        mcds_obs::reset();
        {
            let _root = mcds_obs::span("rt.solve");
            {
                let _p1 = mcds_obs::span("rt.phase1");
                mcds_obs::counter!("rt.mis.selected", 12);
            }
            {
                let _p2 = mcds_obs::span("rt.phase2");
                mcds_obs::counter!("rt.connectors.scanned", 345);
            }
            mcds_obs::observe("rt.damage", 3);
            mcds_obs::gauge_set("rt.queue_depth", 2);
            let prev = mcds_obs::log::stderr_level();
            mcds_obs::log::set_stderr_level(mcds_obs::log::Level::Silent);
            mcds_obs::warn!("round-trip \"quoted\" message");
            mcds_obs::log::set_stderr_level(prev);
        }
        let text = mcds_obs::trace::drain_jsonl();

        let stats = validate_trace(&text).expect("trace must be schema-valid");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.logs, 1);
        assert_eq!(stats.counters, 2);
        assert_eq!(stats.gauges, 1);
        // rt.damage plus one span.* histogram per distinct span name.
        assert_eq!(stats.hists, 4);

        let profile = Profile::from_trace(&text).unwrap();
        let paths: Vec<&str> = profile.frames.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            paths,
            ["rt.solve", "rt.solve/rt.phase1", "rt.solve/rt.phase2"]
        );
        // One root path, so the root sum is its total; children are
        // nested inside the root span, so the root's wall time bounds
        // theirs from above.
        assert_eq!(profile.root_total_ns, profile.frames[0].total_ns);
        let child_ns: u64 = profile.frames[1..].iter().map(|f| f.total_ns).sum();
        assert!(profile.root_total_ns >= child_ns);

        // Draining cleared the event buffer but kept the registry.
        let again = mcds_obs::trace::drain_jsonl();
        let stats2 = validate_trace(&again).unwrap();
        assert_eq!(stats2.spans, 0);
        assert_eq!(stats2.counters, 2);

        mcds_obs::reset();
    });
}

#[test]
fn flush_to_path_writes_a_valid_file() {
    mcds_obs::test_support::with_enabled(true, || {
        mcds_obs::reset();
        {
            let _s = mcds_obs::span("rt.file");
        }
        let path = std::env::temp_dir().join("mcds_obs_rt_trace.jsonl");
        let path = path.to_str().unwrap();
        mcds_obs::trace::flush_to_path(path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let stats = validate_trace(&text).unwrap();
        assert_eq!(stats.spans, 1);
        std::fs::remove_file(path).ok();
        mcds_obs::reset();
    });
}

/// A span caches its histogram handle per thread; `reset` must retire
/// it, or spans after a reset would record into the cleared registry's
/// orphaned histogram.
#[test]
fn span_histograms_are_registered_again_after_a_reset() {
    mcds_obs::test_support::with_enabled(true, || {
        mcds_obs::reset();
        for _ in 0..2 {
            let _s = mcds_obs::span("rt.cached");
        }
        assert_eq!(mcds_obs::histogram("span.rt.cached").count(), 2);
        mcds_obs::reset();
        assert_eq!(mcds_obs::histogram("span.rt.cached").count(), 0);
        {
            let _s = mcds_obs::span("rt.cached");
        }
        assert_eq!(mcds_obs::histogram("span.rt.cached").count(), 1);
        mcds_obs::reset();
    });
}

/// A hostile line nested far past the parser's depth cap is an error on
/// line 2 from both readers, not a stack overflow.
#[test]
fn deeply_nested_lines_are_rejected_not_overflowed() {
    let text = format!(
        "{{\"type\":\"meta\",\"version\":1,\"clock\":\"monotonic-ns\"}}\n{}{}\n",
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    let err = validate_trace(&text).unwrap_err();
    assert!(err.starts_with("line 2:"), "{err}");
    let err = Profile::from_trace(&text).unwrap_err();
    assert!(err.starts_with("line 2:"), "{err}");
}
