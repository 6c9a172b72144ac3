//! Writes the traced pass's spans to `trace_<workload>.json`.
//!
//! Spans are timestamps the benchmark took around calls the workload
//! already makes (spans inside the program are a later issue). They are
//! kept in memory during the pass and written once, here. Every span has
//! an id, a name, start/end in microseconds since the window opened, the
//! id of the span that caused it, and a request identifier shared by all
//! spans of one rig frame (`drive_closed`, `stream_open`), request
//! (`saturate_closed`) or batch call (`offline_int8`).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::measure::Batch;
use crate::workloads::{LegResult, Pass, Workload};

struct SpanWriter<W: Write> {
    out: W,
    origin: Instant,
    next_id: u64,
}

impl<W: Write> SpanWriter<W> {
    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Writes one span and returns its id. `extra` is appended verbatim
    /// (already-rendered `,"key":value` pairs).
    fn span(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: u64,
        extra: &str,
    ) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let comma = if id == 0 { "" } else { "," };
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            self.out,
            "{comma}{{\"id\":{id},\"name\":\"{name}\",\"start_us\":{:.3},\"end_us\":{:.3},\
             \"parent\":{parent},\"request\":{request}{extra}}}",
            self.us(start),
            self.us(end.max(start)),
        )?;
        Ok(id)
    }
}

/// Writes every span of `pass`. `batches` (from
/// [`crate::measure::reconstruct_batches`]) splits each request's time at
/// the server into queue wait and execution; when empty, requests are
/// written without that split.
///
/// # Errors
///
/// Propagates I/O errors, including the final flush.
pub fn write_trace(path: &Path, pass: &Pass, batches: &[Batch]) -> io::Result<()> {
    let mut w = SpanWriter {
        out: BufWriter::new(File::create(path)?),
        origin: pass.started,
        next_id: 0,
    };
    writeln!(
        w.out,
        "{{\"workload\":\"{}\",\"clock\":\"microseconds since the timed window opened\",\"spans\":[",
        pass.workload.name()
    )?;

    // Which batch (and so which forward-pass start) served each leg.
    let mut batch_of = vec![None; pass.legs.len()];
    for (index, batch) in batches.iter().enumerate() {
        for &leg in &batch.legs {
            batch_of[leg] = Some(index);
        }
    }

    let framed = matches!(pass.workload, Workload::DriveClosed | Workload::StreamOpen);
    let mut frame_span: Option<(u64, u64)> = None; // (frame, span id)
    for (i, leg) in pass.legs.iter().enumerate() {
        let parent = if framed {
            if frame_span.map(|(frame, _)| frame) != Some(leg.frame) {
                let id = match pass.workload {
                    Workload::DriveClosed => {
                        let f = &pass.frames[leg.frame as usize];
                        let id = w.span("frame", f.start, f.done, None, leg.frame, "")?;
                        w.span(
                            "scene.with_occluders",
                            f.start,
                            f.occluders_placed,
                            Some(id),
                            leg.frame,
                            "",
                        )?;
                        w.span(
                            "dataset.rig_frame",
                            f.occluders_placed,
                            f.rendered,
                            Some(id),
                            leg.frame,
                            "",
                        )?;
                        id
                    }
                    _ => {
                        // The open loop's frame runs from its due time to
                        // its slowest leg's wake-up.
                        let due = pass.due[leg.frame as usize];
                        let last = pass.legs[i..]
                            .iter()
                            .take_while(|l| l.frame == leg.frame)
                            .map(|l| l.wake)
                            .max()
                            .unwrap_or(leg.wake);
                        w.span("frame", due, last, None, leg.frame, "")?
                    }
                };
                frame_span = Some((leg.frame, id));
            }
            frame_span.map(|(_, id)| id)
        } else {
            None
        };
        let extra = format!(
            ",\"source\":{},\"replica\":{},\"outcome\":\"{}\"",
            leg.source,
            leg.replica,
            match leg.result {
                LegResult::Served { .. } => "served",
                LegResult::Rejected => "rejected",
                LegResult::Expired => "expired",
                LegResult::Failed => "failed",
            }
        );
        let id = w.span("request", leg.submit, leg.wake, parent, leg.frame, &extra)?;
        w.span(
            "fleet.submit",
            leg.submit,
            leg.accepted,
            Some(id),
            leg.frame,
            "",
        )?;
        let Some(fulfilled) = leg.fulfilled() else {
            continue;
        };
        match batch_of[i] {
            Some(b) => {
                let started = batches[b].started;
                let batch = format!(",\"batch\":{b},\"batch_size\":{}", batches[b].legs.len());
                w.span(
                    "serve.queue_wait",
                    leg.accepted,
                    started,
                    Some(id),
                    leg.frame,
                    &batch,
                )?;
                w.span(
                    "serve.exec",
                    started,
                    fulfilled,
                    Some(id),
                    leg.frame,
                    &batch,
                )?;
            }
            None => {
                w.span(
                    "serve.server",
                    leg.accepted,
                    fulfilled,
                    Some(id),
                    leg.frame,
                    "",
                )?;
            }
        }
        w.span("client.wake", fulfilled, leg.wake, Some(id), leg.frame, "")?;
    }

    for (call, (start, end)) in pass.calls.iter().enumerate() {
        w.span("predictor.run_slots", *start, *end, None, call as u64, "")?;
    }

    writeln!(w.out, "]}}")?;
    w.out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn span_lines_form_valid_json_with_causal_parents() {
        let origin = Instant::now();
        let later = origin + std::time::Duration::from_micros(1500);
        let mut w = SpanWriter {
            out: Vec::new(),
            origin,
            next_id: 0,
        };
        let root = w.span("frame", origin, later, None, 7, "").unwrap();
        w.span("request", origin, later, Some(root), 7, ",\"source\":2")
            .unwrap();
        // An end before the start (clock skew between estimates) clamps.
        w.span("client.wake", later, origin, Some(root), 7, "")
            .unwrap();
        let text = format!("[{}]", String::from_utf8(w.out).unwrap());
        let spans = json::parse(&text).expect("spans parse");
        let spans = spans.as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("parent"), Some(&json::Json::Null));
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(spans[1].get("source").and_then(|p| p.as_f64()), Some(2.0));
        assert_eq!(
            spans[0].get("end_us").and_then(|p| p.as_f64()),
            Some(1500.0)
        );
        let wake = &spans[2];
        assert_eq!(wake.get("start_us"), wake.get("end_us"));
        for span in spans {
            assert_eq!(span.get("request").and_then(|r| r.as_f64()), Some(7.0));
        }
    }
}
