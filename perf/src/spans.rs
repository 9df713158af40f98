//! The span recorder of the traced run. Spans are taken only in the
//! benchmark's own files, around its calls into the platform; spans inside
//! the platform are a later change. Each generator thread owns one
//! preallocated [`Recorder`], nothing is written until the run has ended.

use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;
use crate::stats;

/// Nanoseconds since the first call in this process: one clock for every
/// thread, so a span may start on one thread and end on another.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Shared by the spans of one request or one solve.
    pub id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span names of one kind of operation: a root and the children that
/// lie inside it.
#[derive(Debug, Clone, Copy)]
pub struct Tree {
    pub root: &'static str,
    pub children: &'static [&'static str],
}

/// A blocking service request: the client is inside `submit` throughout.
pub const REQUEST_BLOCKING: Tree = Tree {
    root: "request",
    children: &["submit", "queue_wait", "run", "complete_to_wake"],
};
/// An asynchronous request; the completion is observed through a
/// `JobHandle`, hence the `handle.` span, which a blocking run never has.
pub const REQUEST_ASYNC: Tree = Tree {
    root: "request",
    children: &["submit", "queue_wait", "run", "handle.complete_to_wake"],
};
/// One fork-join solve through `ThreadPool::install`.
pub const SOLVE: Tree = Tree {
    root: "solve",
    children: &["install_in", "compute", "install_out"],
};

/// One thread's spans. The vector is sized up front; a full recorder
/// counts what it drops, it never grows inside a timed region.
#[derive(Debug)]
pub struct Recorder {
    pub tid: u32,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Recorder {
    pub fn with_capacity(tid: u32, capacity: usize) -> Recorder {
        Recorder {
            tid,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records the spans of one operation, root first. All or nothing, so
    /// a group is never cut in two by a full recorder.
    pub fn record(&mut self, id: u32, group: &[(&'static str, u64, u64)]) {
        if self.spans.len() + group.len() > self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        for &(name, start_ns, end_ns) in group {
            self.spans.push(Span {
                name,
                id,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Where the time of the median operation went.
#[derive(Debug, Clone)]
pub struct Shares {
    pub operations: usize,
    pub median_root_ns: u64,
    /// Each child's median duration over the median root duration.
    pub children: Vec<(&'static str, f64)>,
    /// Median of (root minus what its children cover) over the median root.
    pub self_share: f64,
}

/// Groups each recorder's spans into operations (a root followed by its
/// children, as [`Recorder::record`] wrote them) and takes medians.
pub fn shares(recorders: &[Recorder], tree: Tree) -> Option<Shares> {
    let mut roots = Vec::new();
    let mut selfs = Vec::new();
    let mut per_child: Vec<Vec<u64>> = vec![Vec::new(); tree.children.len()];
    for recorder in recorders {
        let spans = recorder.spans();
        let mut i = 0;
        while i < spans.len() {
            let root = spans[i];
            let mut j = i + 1;
            while j < spans.len() && spans[j].id == root.id && spans[j].name != tree.root {
                j += 1;
            }
            if root.name == tree.root {
                let children = &spans[i + 1..j];
                roots.push(root.end_ns - root.start_ns);
                selfs.push(self_time(root, children));
                for child in children {
                    if let Some(k) = tree.children.iter().position(|&n| n == child.name) {
                        per_child[k].push(child.end_ns - child.start_ns);
                    }
                }
            }
            i = j;
        }
    }
    if roots.is_empty() {
        return None;
    }
    let median_root_ns = stats::median_u64(&roots);
    let over_root = |ns: u64| ns as f64 / median_root_ns.max(1) as f64;
    Some(Shares {
        operations: roots.len(),
        median_root_ns,
        children: tree
            .children
            .iter()
            .zip(&per_child)
            .filter(|(_, durations)| !durations.is_empty())
            .map(|(&name, durations)| (name, over_root(stats::median_u64(durations))))
            .collect(),
        self_share: over_root(stats::median_u64(&selfs)),
    })
}

/// A span's duration minus the part of it that its children cover
/// (children may overlap one another, and are clipped to the parent).
pub fn self_time(parent: Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, parent.start_ns);
    for (start, end) in intervals {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

/// Whether any recorded span's name starts with `prefix`.
pub fn any_named(recorders: &[Recorder], prefix: &str) -> bool {
    recorders
        .iter()
        .any(|r| r.spans().iter().any(|s| s.name.starts_with(prefix)))
}

/// Writes at most `limit` spans per recorder in the Chrome trace-event
/// format (`chrome://tracing`, Perfetto): complete events, microseconds.
///
/// # Errors
///
/// Any I/O error of creating or writing the file.
pub fn write_chrome_trace(
    path: &Path,
    recorders: &[Recorder],
    limit: usize,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n")?;
    let mut first = true;
    for recorder in recorders {
        for span in recorder.spans().iter().take(limit) {
            let event = Json::obj([
                ("name", Json::str(span.name)),
                ("cat", Json::str("perf")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(i64::from(recorder.tid))),
                ("args", Json::obj([("id", Json::Int(i64::from(span.id)))])),
            ]);
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            out.write_all(event.to_line().as_bytes())?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span("request", 100, 200);
        assert_eq!(self_time(parent, &[]), 100);
        // Overlapping children count once; a child is clipped to its parent.
        let children = [
            span("a", 110, 150),
            span("b", 140, 160),
            span("c", 190, 250),
        ];
        assert_eq!(self_time(parent, &children), 100 - (50 + 10));
        assert_eq!(self_time(parent, &[span("all", 0, 300)]), 0);
    }

    #[test]
    fn shares_group_by_operation() {
        let mut r = Recorder::with_capacity(1, 64);
        for id in 0..3u32 {
            let t = 1000 * u64::from(id);
            r.record(
                id,
                &[
                    ("solve", t, t + 100),
                    ("install_in", t, t + 10),
                    ("compute", t + 10, t + 90),
                    ("install_out", t + 90, t + 100),
                ],
            );
        }
        let s = shares(&[r], SOLVE).expect("three solves");
        assert_eq!((s.operations, s.median_root_ns), (3, 100));
        assert_eq!(
            s.children,
            vec![("install_in", 0.1), ("compute", 0.8), ("install_out", 0.1)]
        );
        assert_eq!(s.self_share, 0.0);
    }

    #[test]
    fn a_full_recorder_drops_whole_groups() {
        let mut r = Recorder::with_capacity(1, 3);
        r.record(0, &[("solve", 0, 4), ("compute", 1, 3)]);
        r.record(1, &[("solve", 5, 9), ("compute", 6, 8)]);
        assert_eq!((r.spans().len(), r.dropped), (2, 1));
        assert!(any_named(&[r], "comp"));
    }
}
