//! Spans per point, kept in memory and written out when the run ends,
//! and the per-layer self times derived from them.

use crate::points::{Interval, PointRun};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// One timed region of a point.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the run's span list.
    pub id: usize,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// The point run (pass × point) every span of one point shares.
    pub point: usize,
    /// Layer or phase name.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
}

/// The spans and boundary sums of every traced point.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    lines: Vec<String>,
}

impl Tracer {
    fn push(
        &mut self,
        point: usize,
        parent: Option<usize>,
        name: &'static str,
        at: Interval,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            point,
            name,
            start: at.0,
            end: at.1,
        });
        id
    }

    /// Records a traced point's spans: the point, its set-up phases
    /// under `setup`, the simulation, and the replay.
    pub fn record(&mut self, point: usize, label: &str, run: &PointRun) {
        let p = &run.phases;
        let root = self.push(point, None, "point", p.point);
        let setup_start = p.record.map_or(p.construct.0, |r| r.0);
        let setup = self.push(point, Some(root), "setup", (setup_start, p.pre_age.1));
        if let Some(r) = p.record {
            self.push(point, Some(setup), "setup.trace_record", r);
        }
        self.push(point, Some(setup), "setup.construct", p.construct);
        self.push(point, Some(setup), "setup.pre_age", p.pre_age);
        self.push(point, Some(root), "simulate", p.simulate);
        if let Some(r) = p.replay {
            self.push(point, Some(root), "backend.replay", r);
        }
        let mut line = format!("{{\"point\":{point},\"label\":\"{label}\",\"self_ns\":{{");
        for (i, (layer, ns)) in self_times(run).iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(line, "{sep}\"{layer}\":{ns}");
        }
        if let Some(b) = run.boundary {
            let _ = write!(
                line,
                "}},\"workload_calls\":{},\"read_calls\":{},\"reads\":{},\"writeback_calls\":{}}}",
                b.workload_calls, b.read_calls, b.reads, b.writeback_calls
            );
        } else {
            line.push_str("}}");
        }
        self.lines.push(line);
    }

    /// Writes every span, then every point's self times, as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{},\"parent\":{parent},\"point\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.point, s.name, s.start, s.end
            )?;
        }
        for line in &self.lines {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

fn len(at: Interval) -> i64 {
    at.1 as i64 - at.0 as i64
}

/// A point's host time split into self times, in ns: each span minus
/// its children, with the simulation split at the boundaries into the
/// workload, the backend, and the rest (`cpu` for a machine, `server`
/// for `SecureServer`, whose backend is out of reach). The parts
/// sum to the point span.
pub fn self_times(run: &PointRun) -> Vec<(&'static str, i64)> {
    let p = &run.phases;
    let record = p.record.map_or(0, len);
    let replay = p.replay.map_or(0, len);
    let setup_start = p.record.map_or(p.construct.0, |r| r.0);
    let setup = len((setup_start, p.pre_age.1));
    let simulate = len(p.simulate);
    let b = run.boundary.unwrap_or_default();
    let (workloads, backend) = (b.workload_ns as i64, b.backend_ns as i64);
    let rest = if run.server { "server" } else { "cpu" };
    vec![
        ("point", len(p.point) - setup - simulate - replay),
        ("setup", setup - record - len(p.construct) - len(p.pre_age)),
        ("setup.trace_record", record),
        ("setup.construct", len(p.construct)),
        ("setup.pre_age", len(p.pre_age)),
        ("workloads", workloads),
        ("backend", backend),
        (rest, simulate - workloads - backend),
        ("backend.replay", replay),
    ]
}
