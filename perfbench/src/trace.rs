//! In-memory spans around the benchmark's calls into each layer, written
//! out as JSON when the run ends. Recording happens only in a traced run.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; its parent is the innermost
    /// span still open.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                name: name.to_string(),
                id,
                parent: self.open.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Record an already-timed interval (instants taken by the caller).
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name: name.to_string(),
            id,
            parent: self.open.borrow().last().copied(),
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
    }

    /// Total seconds recorded under `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Write every span plus `extra` (a JSON object body, without braces)
    /// to `path`.
    pub fn write(&self, path: &Path, extra: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"spans\": [")?;
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.id,
                parent,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(f, "],")?;
        writeln!(f, "{extra}}}")?;
        f.flush()
    }
}
