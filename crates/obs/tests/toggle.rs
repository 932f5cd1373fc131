//! The global enable switch, exercised in its own process: lib unit tests
//! run threads in parallel, and flipping the process-wide flag there
//! would race every other recording test.

use cf_obs::sync::RecoverMutex;
use cf_obs::{set_enabled, Counter, Gauge, Histogram, Registry, SpanTimer};
use std::sync::MutexGuard;

/// The tests below flip the process-wide enable flag; they serialize on
/// this lock (and restore the flag on exit) so they cannot race each
/// other inside this binary.
static FLAG: RecoverMutex<()> = RecoverMutex::new(());

struct EnabledScope {
    _guard: MutexGuard<'static, ()>,
}

fn locked() -> EnabledScope {
    EnabledScope {
        _guard: FLAG.lock(),
    }
}

impl Drop for EnabledScope {
    fn drop(&mut self) {
        set_enabled(true);
    }
}

#[test]
fn disabled_recording_is_a_noop_and_reenabling_restores_it() {
    let _g = locked();
    let h = Histogram::new();
    let c = Counter::new();
    set_enabled(false);
    h.record(5);
    c.inc();
    assert_eq!(h.snapshot().count, 0);
    assert_eq!(c.get(), 0);
    set_enabled(true);
    h.record(5);
    c.inc();
    assert_eq!(h.snapshot().count, 1);
    assert_eq!(c.get(), 1);
}

#[test]
fn disabled_gauge_and_span_timer_record_nothing() {
    let _g = locked();
    let r = Registry::new();
    set_enabled(false);
    let g = Gauge::new();
    g.set(99);
    assert_eq!(g.get(), 0);
    {
        // A disabled SpanTimer must be inert end-to-end: no clock read at
        // construction, nothing recorded at drop — even if re-enabled
        // mid-flight (it was born disabled).
        let t = SpanTimer::new(r.histogram("toggle.span_ns"));
        set_enabled(true);
        drop(t);
    }
    assert_eq!(
        r.histogram("toggle.span_ns").snapshot().count,
        0,
        "a timer created while disabled must never record"
    );
    set_enabled(true);
    {
        let _t = SpanTimer::new(r.histogram("toggle.span_ns"));
    }
    assert_eq!(r.histogram("toggle.span_ns").snapshot().count, 1);
}

#[test]
fn disabled_tracing_records_nothing() {
    let _g = locked();
    set_enabled(false);
    cf_obs::trace::clear();

    cf_obs::trace::set_head_sample_every(1);
    let req = cf_obs::trace::begin_request(1, 2);
    {
        let _s = cf_obs::trace::span("stage");
    }
    cf_obs::trace::note("anomaly");
    req.finish(cf_obs::trace::Outcome {
        level: "global_mean",
        fallback: true, // would be tail-kept if tracing were live
        k_used: 0,
        m_used: 0,
        fused: 3.0,
    });
    assert!(
        cf_obs::trace::snapshot().is_empty(),
        "disabled registry must suppress trace capture entirely"
    );
    assert!(cf_obs::trace::exemplars().is_empty());

    set_enabled(true);
    cf_obs::trace::set_head_sample_every(64);
}
