//! Export sinks: JSON-Lines and Chrome `trace_event` (Perfetto-loadable).
//!
//! * [`to_jsonl`] writes one self-describing JSON object per line, in
//!   causal order — easy to grep and to diff (the determinism tests
//!   compare these byte-for-byte).
//! * [`to_chrome_trace`] writes the Trace Event Format understood by
//!   Perfetto and `chrome://tracing`: VMs appear as processes, components
//!   (mapper, preventer, disk, ...) as named threads, latency-carrying
//!   events as complete (`"X"`) slices and everything else as instants.

use crate::event::{Event, EventKind, EventRecord};
use crate::json::{JsonScalar, JsonWriter};
use crate::log::EventLog;
use crate::span::SpanEvent;

/// Supported on-disk trace encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line.
    Jsonl,
    /// Chrome `trace_event` JSON (open in Perfetto).
    Chrome,
}

impl TraceFormat {
    /// The CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Chrome => "chrome",
        }
    }
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "jsonl" => Ok(TraceFormat::Jsonl),
            "chrome" => Ok(TraceFormat::Chrome),
            other => Err(format!("unknown trace format '{other}' (expected jsonl or chrome)")),
        }
    }
}

/// Renders the log in the requested format.
pub fn render(log: &EventLog, format: TraceFormat) -> String {
    match format {
        TraceFormat::Jsonl => to_jsonl(log),
        TraceFormat::Chrome => to_chrome_trace(log),
    }
}

/// Renders an explicit record slice (e.g. a time-window filter of a log)
/// in the requested format.
pub fn render_records(records: &[EventRecord], format: TraceFormat) -> String {
    match format {
        TraceFormat::Jsonl => to_jsonl_records(records),
        TraceFormat::Chrome => to_chrome_trace_records(records),
    }
}

/// Renders the log as JSON Lines: one record per line, causal order.
pub fn to_jsonl(log: &EventLog) -> String {
    to_jsonl_records(&log.records())
}

/// [`to_jsonl`] over an explicit record slice.
pub fn to_jsonl_records(records: &[EventRecord]) -> String {
    let mut out = String::new();
    for record in records {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("seq", record.seq);
        w.field_u64("ns", record.at.as_nanos());
        match record.vm {
            Some(vm) => w.field_u64("vm", u64::from(vm)),
            None => {
                w.key("vm");
                w.value_null();
            }
        }
        w.field_str("kind", record.event.kind().name());
        if !record.span.is_none() {
            w.field_u64("span", record.span.get());
        }
        if !record.parent.is_none() {
            w.field_u64("parent", record.parent.get());
        }
        record.event.write_fields(&mut w);
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace back into the neutral events the span assembler
/// consumes — the exact inverse of [`to_jsonl`] for the fields the
/// critical-path analyzer needs. Lines must be flat JSON objects whose
/// `seq`, `ns`, `span`, `parent`, `latency_ns` and `backoff_ns`, where
/// present, are unsigned integers and whose `vm` is `null` or a `u32`;
/// an absent stamp reads as zero (`vm` as `None`). The line number of
/// the first malformed line is reported.
pub fn parse_jsonl(text: &str) -> Result<Vec<SpanEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = crate::json::parse_flat_object(line)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let mut event = SpanEvent {
            seq: 0,
            at: sim_core::SimTime::ZERO,
            vm: None,
            kind: String::new(),
            span: 0,
            parent: 0,
            weight: sim_core::SimDuration::ZERO,
        };
        for (key, value) in fields {
            let bad = |want: &str| format!("line {}: `{key}` must be {want}", lineno + 1);
            let unsigned = || value.as_u64().ok_or_else(|| bad("an unsigned integer"));
            match key.as_str() {
                "seq" => event.seq = unsigned()?,
                "ns" => event.at = sim_core::SimTime::from_nanos(unsigned()?),
                "vm" if value == JsonScalar::Null => event.vm = None,
                "vm" => {
                    let vm = value.as_u64().and_then(|v| u32::try_from(v).ok());
                    event.vm = Some(vm.ok_or_else(|| bad("null or a u32"))?);
                }
                "kind" => event.kind = value.as_str().unwrap_or("").to_owned(),
                "span" => event.span = unsigned()?,
                "parent" => event.parent = unsigned()?,
                "latency_ns" | "backoff_ns" => {
                    event.weight = sim_core::SimDuration::from_nanos(unsigned()?);
                }
                _ => {}
            }
        }
        if event.kind.is_empty() {
            return Err(format!("line {}: record has no kind", lineno + 1));
        }
        events.push(event);
    }
    Ok(events)
}

/// Chrome trace process id: 0 is the host, VM `n` maps to `n + 1`.
fn chrome_pid(record: &EventRecord) -> u64 {
    record.vm.map_or(0, |vm| u64::from(vm) + 1)
}

/// Chrome trace thread id: a stable small integer per component.
fn chrome_tid(kind: EventKind) -> u64 {
    match kind.component() {
        "machine" => 0,
        "host-mm" => 1,
        "mapper" => 2,
        "preventer" => 3,
        "balloon" => 4,
        "disk" => 5,
        _ => 6, // "guest"
    }
}

/// The hardware queue a record concerns, if it is queue-resident disk
/// traffic.
fn disk_queue(event: &Event) -> Option<u32> {
    match event {
        Event::DiskIssue { queue, .. }
        | Event::DiskComplete { queue, .. }
        | Event::DiskFault { queue, .. } => Some(*queue),
        _ => None,
    }
}

/// Thread id for one record: queue-resident disk commands fan out to
/// one lane per hardware queue (tid 100 + queue) so completion slices
/// render as per-queue residency spans; everything else keeps its
/// component lane.
fn chrome_tid_record(record: &EventRecord) -> u64 {
    match disk_queue(&record.event) {
        Some(queue) => 100 + u64::from(queue),
        None => chrome_tid(record.event.kind()),
    }
}

/// Thread name for one record's lane (`disk-q3`, `mapper`, ...).
fn chrome_thread_name(record: &EventRecord) -> String {
    match disk_queue(&record.event) {
        Some(queue) => format!("disk-q{queue}"),
        None => record.event.kind().component().to_owned(),
    }
}

fn metadata_event(w: &mut JsonWriter, name: &str, pid: u64, tid: u64, value: &str) {
    w.begin_object();
    w.field_str("name", name);
    w.field_str("ph", "M");
    w.field_u64("pid", pid);
    w.field_u64("tid", tid);
    w.key("args");
    w.begin_object();
    w.field_str("name", value);
    w.end_object();
    w.end_object();
}

/// Renders the log in Chrome `trace_event` JSON (the "JSON object
/// format": `{"traceEvents": [...]}`), loadable in Perfetto.
pub fn to_chrome_trace(log: &EventLog) -> String {
    to_chrome_trace_records(&log.records())
}

/// [`to_chrome_trace`] over an explicit record slice.
pub fn to_chrome_trace_records(records: &[EventRecord]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();

    // Process/thread naming metadata for every (pid, tid) in the log.
    let mut seen: std::collections::BTreeSet<(u64, u64)> = std::collections::BTreeSet::new();
    for record in records {
        let pid = chrome_pid(record);
        let tid = chrome_tid_record(record);
        if seen.insert((pid, tid)) {
            if seen.iter().filter(|(p, _)| *p == pid).count() == 1 {
                let pname = if pid == 0 { "host".to_string() } else { format!("vm{}", pid - 1) };
                metadata_event(&mut w, "process_name", pid, tid, &pname);
            }
            metadata_event(&mut w, "thread_name", pid, tid, &chrome_thread_name(record));
        }
    }

    for record in records {
        let pid = chrome_pid(record);
        let tid = chrome_tid_record(record);
        let end_us = record.at.as_nanos() as f64 / 1e3;
        // Latency-carrying events become complete slices; the stamp is
        // the completion instant, so the slice starts `dur` earlier.
        let duration = match &record.event {
            Event::DiskComplete { latency, .. } => Some(*latency),
            Event::WorkloadFinished { runtime, .. } => Some(*runtime),
            _ => None,
        };
        w.begin_object();
        w.field_str("name", record.event.kind().name());
        w.field_str("cat", record.event.kind().component());
        match duration {
            Some(d) => {
                let dur_us = d.as_nanos() as f64 / 1e3;
                w.field_str("ph", "X");
                w.field_f64("ts", end_us - dur_us);
                w.field_f64("dur", dur_us);
            }
            None => {
                w.field_str("ph", "i");
                w.field_str("s", "t");
                w.field_f64("ts", end_us);
            }
        }
        w.field_u64("pid", pid);
        w.field_u64("tid", tid);
        w.key("args");
        w.begin_object();
        w.field_u64("seq", record.seq);
        if !record.span.is_none() {
            w.field_u64("span", record.span.get());
        }
        if !record.parent.is_none() {
            w.field_u64("parent", record.parent.get());
        }
        record.event.write_fields(&mut w);
        w.end_object();
        w.end_object();
    }

    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FlushCause, IoKind, IoTag};
    use crate::span::SpanId;
    use sim_core::{SimDuration, SimTime};
    use sim_fault::FaultKind;

    fn sample_log() -> EventLog {
        let log = EventLog::bounded(64);
        log.emit(
            SimTime::from_nanos(1_000),
            Some(0),
            Event::PageFault { gfn: 5, write: true, major: true },
        );
        log.emit(SimTime::from_nanos(2_000), Some(0), Event::MapperName { gfn: 5, image_page: 99 });
        log.emit(
            SimTime::from_nanos(3_000),
            Some(0),
            Event::PreventerFlush { gfn: 5, cause: FlushCause::GuestRead },
        );
        log.emit(
            SimTime::from_nanos(9_000),
            None,
            Event::DiskComplete {
                dir: IoKind::Read,
                class: IoTag::HostSwap,
                sector: 100,
                sectors: 8,
                latency: SimDuration::from_micros(4),
                sequential: false,
                queue: 0,
            },
        );
        log
    }

    #[test]
    fn jsonl_is_one_record_per_line() {
        let text = to_jsonl(&sample_log());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(r#""kind":"page_fault""#));
        assert!(lines[0].contains(r#""vm":0"#));
        assert!(lines[3].contains(r#""vm":null"#));
        assert!(lines[3].contains(r#""latency_ns":4000"#));
    }

    #[test]
    fn chrome_trace_has_slices_and_instants() {
        let text = to_chrome_trace(&sample_log());
        assert!(text.starts_with(r#"{"traceEvents":["#));
        assert!(text.ends_with("]}"));
        assert!(text.contains(r#""ph":"X""#), "disk completion becomes a slice");
        assert!(text.contains(r#""ph":"i""#), "faults become instants");
        assert!(text.contains(r#""ph":"M""#), "metadata names processes/threads");
        assert!(text.contains(r#""dur":4"#));
        // Slice starts at completion minus latency: 9us - 4us = 5us.
        assert!(text.contains(r#""ts":5"#));
    }

    #[test]
    fn jsonl_round_trips_span_stamps() {
        let log = EventLog::bounded(64);
        let root = log.open_span(SimTime::from_nanos(100));
        log.emit(
            SimTime::from_nanos(120),
            None,
            Event::IoRetry { attempt: 1, backoff: SimDuration::from_nanos(40) },
        );
        log.close_span_with(root, Some(0), || Event::PageFault {
            gfn: 9,
            write: false,
            major: true,
        });
        let text = to_jsonl(&log);
        assert!(text.contains(r#""parent":1"#));
        assert!(text.contains(r#""span":1"#));
        let parsed = parse_jsonl(&text).expect("parses back");
        let original: Vec<SpanEvent> = log.records().iter().map(SpanEvent::from_record).collect();
        assert_eq!(parsed, original, "JSONL is a lossless span encoding");
    }

    #[test]
    fn jsonl_records_the_queue() {
        let text = to_jsonl(&sample_log());
        assert!(text.contains(r#""queue":0"#), "disk records carry their queue");
    }

    #[test]
    fn chrome_trace_fans_disk_queues_into_lanes() {
        let log = EventLog::bounded(16);
        for queue in [0u32, 3] {
            log.emit(
                SimTime::from_nanos(5_000),
                None,
                Event::DiskComplete {
                    dir: IoKind::Write,
                    class: IoTag::HostSwap,
                    sector: 0,
                    sectors: 8,
                    latency: SimDuration::from_micros(1),
                    sequential: true,
                    queue,
                },
            );
        }
        let text = to_chrome_trace(&log);
        assert!(text.contains(r#""name":"disk-q0""#), "queue 0 gets its own lane");
        assert!(text.contains(r#""name":"disk-q3""#), "queue 3 gets its own lane");
        assert!(text.contains(r#""tid":100"#));
        assert!(text.contains(r#""tid":103"#));
    }

    #[test]
    fn parse_jsonl_reports_the_bad_line() {
        // The first line omits `ns`: an absent stamp keeps its default.
        let good = "{\"seq\":0,\"kind\":\"swap_out\"}\n";
        assert_eq!(parse_jsonl(good).expect("parses")[0].at, SimTime::ZERO);
        let bad_lines = [
            "not json",
            r#"{"seq":1,"ns":"late","kind":"swap_out"}"#,
            r#"{"seq":1,"ns":-5,"kind":"swap_out"}"#,
            r#"{"seq":1,"ns":null,"kind":"swap_out"}"#,
            r#"{"seq":true,"kind":"swap_out"}"#,
            r#"{"seq":1,"kind":"swap_out","span":"one"}"#,
            r#"{"seq":1,"kind":"swap_out","parent":1.5}"#,
            r#"{"seq":1,"kind":"disk_complete","latency_ns":2.5}"#,
            r#"{"seq":1,"kind":"io_retry","backoff_ns":-1}"#,
            r#"{"seq":1,"vm":-1,"kind":"swap_out"}"#,
            r#"{"seq":1,"vm":"0","kind":"swap_out"}"#,
            r#"{"seq":1,"vm":4294967296,"kind":"swap_out"}"#,
        ];
        for bad in bad_lines {
            let err = parse_jsonl(&format!("{good}{bad}\n")).unwrap_err();
            assert!(err.starts_with("line 2:"), "{bad}: {err}");
        }
    }

    /// One record of every kind, in [`EventKind::ALL`] order, with span
    /// and parent stamps on the first few.
    fn one_of_each_kind() -> Vec<EventRecord> {
        let events = vec![
            Event::PageFault { gfn: 5, write: true, major: true },
            Event::SwapOut { gfn: 6 },
            Event::SwapIn { gfn: 7, readahead: 3 },
            Event::NamedDiscard { gfn: 8 },
            Event::NamedRefault { gfn: 9, readahead: 2 },
            Event::MapperName { gfn: 10, image_page: 99 },
            Event::MapperUnname { gfn: 11 },
            Event::PreventerOpen { gfn: 12 },
            Event::PreventerFlush { gfn: 12, cause: FlushCause::GuestRead },
            Event::PreventerDiscard { gfn: 13 },
            Event::BalloonInflate { pages: 256 },
            Event::BalloonDeflate { pages: 128 },
            Event::BalloonTarget { target_pages: 512 },
            Event::DiskIssue {
                dir: IoKind::Read,
                class: IoTag::HostSwap,
                sector: 800,
                sectors: 8,
                queue: 0,
            },
            Event::DiskComplete {
                dir: IoKind::Read,
                class: IoTag::HostSwap,
                sector: 800,
                sectors: 8,
                latency: SimDuration::from_micros(4),
                sequential: false,
                queue: 0,
            },
            Event::DiskFault {
                dir: IoKind::Write,
                class: IoTag::GuestImage,
                sector: 1600,
                fault: FaultKind::Torn,
                queue: 3,
            },
            Event::IoRetry { attempt: 2, backoff: SimDuration::from_nanos(1_500) },
            Event::MapperDegraded { gfn: 14, image_page: 100 },
            Event::ReclaimScan { scanned: 64, reclaimed: 32 },
            Event::GuestSwapOut { pages: 16 },
            Event::GuestSwapIn { pages: 8 },
            Event::WorkloadStarted { name: "pbzip2".to_owned() },
            Event::WorkloadFinished { runtime: SimDuration::from_micros(20), killed: false },
            Event::MigrationRound { round: 1, copied: 4096 },
            Event::MigrationAbort { round: 2, wasted_bytes: 1 << 20 },
            Event::HostCrash { guests: 3 },
            Event::Evacuation { recovered_pages: 700, refaulted_pages: 12 },
        ];
        // (span, parent) stamps: a fault span (1) holding a swap-in span
        // (2), whose disk traffic and retry are its leaves.
        let stamps = |seq: u64| match seq {
            0 => (1, 0),
            1 => (0, 1),
            2 => (2, 1),
            13..=16 => (0, 2),
            _ => (0, 0),
        };
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| {
                let seq = i as u64;
                let (span, parent) = stamps(seq);
                EventRecord {
                    seq,
                    at: SimTime::from_nanos(1_000 * (seq + 1) + 250 * (seq % 2)),
                    vm: [Some(0), Some(1), None][i % 3],
                    span: SpanId(span),
                    parent: SpanId(parent),
                    event,
                }
            })
            .collect()
    }

    #[test]
    fn every_kind_exports_its_fields() {
        let records = one_of_each_kind();
        let kinds: Vec<EventKind> = records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, EventKind::ALL, "one record of each kind, in order");

        let jsonl = to_jsonl_records(&records);
        assert_eq!(jsonl, PINNED_JSONL);
        assert_eq!(to_chrome_trace_records(&records), PINNED_CHROME);

        let parsed = parse_jsonl(&jsonl).expect("parses back");
        let read_back: Vec<(&str, u64)> =
            parsed.iter().map(|e| (e.kind.as_str(), e.weight.as_nanos())).collect();
        let expected: Vec<(&str, u64)> = EventKind::ALL
            .iter()
            .map(|k| {
                let weight = match k.name() {
                    "disk_complete" => 4_000,
                    "io_retry" => 1_500,
                    _ => 0,
                };
                (k.name(), weight)
            })
            .collect();
        assert_eq!(read_back, expected);
        let original: Vec<SpanEvent> = records.iter().map(SpanEvent::from_record).collect();
        assert_eq!(parsed, original);
    }

    const PINNED_JSONL: &str = r#"{"seq":0,"ns":1000,"vm":0,"kind":"page_fault","span":1,"gfn":5,"write":true,"major":true}
{"seq":1,"ns":2250,"vm":1,"kind":"swap_out","parent":1,"gfn":6}
{"seq":2,"ns":3000,"vm":null,"kind":"swap_in","span":2,"parent":1,"gfn":7,"readahead":3}
{"seq":3,"ns":4250,"vm":0,"kind":"named_discard","gfn":8}
{"seq":4,"ns":5000,"vm":1,"kind":"named_refault","gfn":9,"readahead":2}
{"seq":5,"ns":6250,"vm":null,"kind":"mapper_name","gfn":10,"image_page":99}
{"seq":6,"ns":7000,"vm":0,"kind":"mapper_unname","gfn":11}
{"seq":7,"ns":8250,"vm":1,"kind":"preventer_open","gfn":12}
{"seq":8,"ns":9000,"vm":null,"kind":"preventer_flush","gfn":12,"cause":"guest_read"}
{"seq":9,"ns":10250,"vm":0,"kind":"preventer_discard","gfn":13}
{"seq":10,"ns":11000,"vm":1,"kind":"balloon_inflate","pages":256}
{"seq":11,"ns":12250,"vm":null,"kind":"balloon_deflate","pages":128}
{"seq":12,"ns":13000,"vm":0,"kind":"balloon_target","target_pages":512}
{"seq":13,"ns":14250,"vm":1,"kind":"disk_issue","parent":2,"dir":"read","class":"swap","sector":800,"sectors":8,"queue":0}
{"seq":14,"ns":15000,"vm":null,"kind":"disk_complete","parent":2,"dir":"read","class":"swap","sector":800,"sectors":8,"latency_ns":4000,"sequential":false,"queue":0}
{"seq":15,"ns":16250,"vm":0,"kind":"disk_fault","parent":2,"dir":"write","class":"image","sector":1600,"fault":"torn","queue":3}
{"seq":16,"ns":17000,"vm":1,"kind":"io_retry","parent":2,"attempt":2,"backoff_ns":1500}
{"seq":17,"ns":18250,"vm":null,"kind":"mapper_degraded","gfn":14,"image_page":100}
{"seq":18,"ns":19000,"vm":0,"kind":"reclaim_scan","scanned":64,"reclaimed":32}
{"seq":19,"ns":20250,"vm":1,"kind":"guest_swap_out","pages":16}
{"seq":20,"ns":21000,"vm":null,"kind":"guest_swap_in","pages":8}
{"seq":21,"ns":22250,"vm":0,"kind":"workload_started","name":"pbzip2"}
{"seq":22,"ns":23000,"vm":1,"kind":"workload_finished","runtime_ns":20000,"killed":false}
{"seq":23,"ns":24250,"vm":null,"kind":"migration_round","round":1,"copied":4096}
{"seq":24,"ns":25000,"vm":0,"kind":"migration_abort","round":2,"wasted_bytes":1048576}
{"seq":25,"ns":26250,"vm":1,"kind":"host_crash","guests":3}
{"seq":26,"ns":27000,"vm":null,"kind":"evacuation","recovered_pages":700,"refaulted_pages":12}
"#;
    const PINNED_CHROME: &str = concat!(
        r#"{"traceEvents":["#,
        r#"{"name":"process_name","ph":"M","pid":1,"tid":1,"args":{"name":"vm0"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"host-mm"}},"#,
        r#"{"name":"process_name","ph":"M","pid":2,"tid":1,"args":{"name":"vm1"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"host-mm"}},"#,
        r#"{"name":"process_name","ph":"M","pid":0,"tid":1,"args":{"name":"host"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"host-mm"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"mapper"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":2,"tid":2,"args":{"name":"mapper"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"mapper"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":2,"tid":3,"args":{"name":"preventer"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":3,"args":{"name":"preventer"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"preventer"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":2,"tid":4,"args":{"name":"balloon"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":4,"args":{"name":"balloon"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"balloon"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":2,"tid":100,"args":{"name":"disk-q0"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":100,"args":{"name":"disk-q0"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":103,"args":{"name":"disk-q3"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":2,"tid":5,"args":{"name":"disk"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":2,"tid":6,"args":{"name":"guest"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":6,"args":{"name":"guest"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"machine"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"machine"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"machine"}},"#,
        r#"{"name":"page_fault","cat":"host-mm","ph":"i","s":"t","ts":1,"pid":1,"tid":1,"args":{"seq":0,"span":1,"gfn":5,"write":true,"major":true}},"#,
        r#"{"name":"swap_out","cat":"host-mm","ph":"i","s":"t","ts":2.25,"pid":2,"tid":1,"args":{"seq":1,"parent":1,"gfn":6}},"#,
        r#"{"name":"swap_in","cat":"host-mm","ph":"i","s":"t","ts":3,"pid":0,"tid":1,"args":{"seq":2,"span":2,"parent":1,"gfn":7,"readahead":3}},"#,
        r#"{"name":"named_discard","cat":"mapper","ph":"i","s":"t","ts":4.25,"pid":1,"tid":2,"args":{"seq":3,"gfn":8}},"#,
        r#"{"name":"named_refault","cat":"mapper","ph":"i","s":"t","ts":5,"pid":2,"tid":2,"args":{"seq":4,"gfn":9,"readahead":2}},"#,
        r#"{"name":"mapper_name","cat":"mapper","ph":"i","s":"t","ts":6.25,"pid":0,"tid":2,"args":{"seq":5,"gfn":10,"image_page":99}},"#,
        r#"{"name":"mapper_unname","cat":"mapper","ph":"i","s":"t","ts":7,"pid":1,"tid":2,"args":{"seq":6,"gfn":11}},"#,
        r#"{"name":"preventer_open","cat":"preventer","ph":"i","s":"t","ts":8.25,"pid":2,"tid":3,"args":{"seq":7,"gfn":12}},"#,
        r#"{"name":"preventer_flush","cat":"preventer","ph":"i","s":"t","ts":9,"pid":0,"tid":3,"args":{"seq":8,"gfn":12,"cause":"guest_read"}},"#,
        r#"{"name":"preventer_discard","cat":"preventer","ph":"i","s":"t","ts":10.25,"pid":1,"tid":3,"args":{"seq":9,"gfn":13}},"#,
        r#"{"name":"balloon_inflate","cat":"balloon","ph":"i","s":"t","ts":11,"pid":2,"tid":4,"args":{"seq":10,"pages":256}},"#,
        r#"{"name":"balloon_deflate","cat":"balloon","ph":"i","s":"t","ts":12.25,"pid":0,"tid":4,"args":{"seq":11,"pages":128}},"#,
        r#"{"name":"balloon_target","cat":"balloon","ph":"i","s":"t","ts":13,"pid":1,"tid":4,"args":{"seq":12,"target_pages":512}},"#,
        r#"{"name":"disk_issue","cat":"disk","ph":"i","s":"t","ts":14.25,"pid":2,"tid":100,"args":{"seq":13,"parent":2,"dir":"read","class":"swap","sector":800,"sectors":8,"queue":0}},"#,
        r#"{"name":"disk_complete","cat":"disk","ph":"X","ts":11,"dur":4,"pid":0,"tid":100,"args":{"seq":14,"parent":2,"dir":"read","class":"swap","sector":800,"sectors":8,"latency_ns":4000,"sequential":false,"queue":0}},"#,
        r#"{"name":"disk_fault","cat":"disk","ph":"i","s":"t","ts":16.25,"pid":1,"tid":103,"args":{"seq":15,"parent":2,"dir":"write","class":"image","sector":1600,"fault":"torn","queue":3}},"#,
        r#"{"name":"io_retry","cat":"disk","ph":"i","s":"t","ts":17,"pid":2,"tid":5,"args":{"seq":16,"parent":2,"attempt":2,"backoff_ns":1500}},"#,
        r#"{"name":"mapper_degraded","cat":"mapper","ph":"i","s":"t","ts":18.25,"pid":0,"tid":2,"args":{"seq":17,"gfn":14,"image_page":100}},"#,
        r#"{"name":"reclaim_scan","cat":"host-mm","ph":"i","s":"t","ts":19,"pid":1,"tid":1,"args":{"seq":18,"scanned":64,"reclaimed":32}},"#,
        r#"{"name":"guest_swap_out","cat":"guest","ph":"i","s":"t","ts":20.25,"pid":2,"tid":6,"args":{"seq":19,"pages":16}},"#,
        r#"{"name":"guest_swap_in","cat":"guest","ph":"i","s":"t","ts":21,"pid":0,"tid":6,"args":{"seq":20,"pages":8}},"#,
        r#"{"name":"workload_started","cat":"machine","ph":"i","s":"t","ts":22.25,"pid":1,"tid":0,"args":{"seq":21,"name":"pbzip2"}},"#,
        r#"{"name":"workload_finished","cat":"machine","ph":"X","ts":3,"dur":20,"pid":2,"tid":0,"args":{"seq":22,"runtime_ns":20000,"killed":false}},"#,
        r#"{"name":"migration_round","cat":"machine","ph":"i","s":"t","ts":24.25,"pid":0,"tid":0,"args":{"seq":23,"round":1,"copied":4096}},"#,
        r#"{"name":"migration_abort","cat":"machine","ph":"i","s":"t","ts":25,"pid":1,"tid":0,"args":{"seq":24,"round":2,"wasted_bytes":1048576}},"#,
        r#"{"name":"host_crash","cat":"machine","ph":"i","s":"t","ts":26.25,"pid":2,"tid":0,"args":{"seq":25,"guests":3}},"#,
        r#"{"name":"evacuation","cat":"machine","ph":"i","s":"t","ts":27,"pid":0,"tid":0,"args":{"seq":26,"recovered_pages":700,"refaulted_pages":12}}]}"#,
    );

    #[test]
    fn format_parses() {
        assert_eq!("jsonl".parse::<TraceFormat>().unwrap(), TraceFormat::Jsonl);
        assert_eq!("chrome".parse::<TraceFormat>().unwrap(), TraceFormat::Chrome);
        assert!("xml".parse::<TraceFormat>().is_err());
    }
}
