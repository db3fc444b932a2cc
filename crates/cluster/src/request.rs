//! Web requests and their service demands.

/// Kind of content a request asks for, mirroring the paper's synthetic
/// trace: "30% of requests to dynamic content in the form of a simple CGI
/// script that computes for 25 ms and produces a small reply" (§5), the
/// rest static files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A static file: little CPU, some disk.
    Static,
    /// A CGI request: CPU-bound (25 ms of compute in the paper's trace).
    Dynamic,
}

/// Default CPU demand of a static request, milliseconds.
pub const STATIC_CPU_MS: f64 = 2.0;
/// Default disk demand of a static request, milliseconds.
pub const STATIC_DISK_MS: f64 = 6.0;
/// Default CPU demand of a dynamic (CGI) request, milliseconds — the
/// paper's 25 ms script.
pub const DYNAMIC_CPU_MS: f64 = 25.0;
/// Default disk demand of a dynamic request, milliseconds.
pub const DYNAMIC_DISK_MS: f64 = 1.0;

/// One client request with its service demands.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    kind: RequestKind,
    cpu_ms: f64,
    disk_ms: f64,
}

impl Request {
    /// Creates a request with explicit demands (non-finite or negative
    /// demands are clamped to zero).
    pub fn new(kind: RequestKind, cpu_ms: f64, disk_ms: f64) -> Self {
        let cpu = if cpu_ms.is_finite() {
            cpu_ms.max(0.0)
        } else {
            0.0
        };
        let disk = if disk_ms.is_finite() {
            disk_ms.max(0.0)
        } else {
            0.0
        };
        Request {
            kind,
            cpu_ms: cpu,
            disk_ms: disk,
        }
    }

    /// A default static-file request.
    pub fn static_file() -> Self {
        Request::new(RequestKind::Static, STATIC_CPU_MS, STATIC_DISK_MS)
    }

    /// A default dynamic (25 ms CGI) request.
    pub fn dynamic() -> Self {
        Request::new(RequestKind::Dynamic, DYNAMIC_CPU_MS, DYNAMIC_DISK_MS)
    }

    /// The request's kind.
    pub fn kind(&self) -> RequestKind {
        self.kind
    }

    /// Total CPU demand, ms.
    pub fn cpu_ms(&self) -> f64 {
        self.cpu_ms
    }

    /// Total disk demand, ms.
    pub fn disk_ms(&self) -> f64 {
        self.disk_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_trace_recipe() {
        let cgi = Request::dynamic();
        assert_eq!(cgi.kind(), RequestKind::Dynamic);
        assert_eq!(cgi.cpu_ms(), 25.0);
        let file = Request::static_file();
        assert_eq!(file.kind(), RequestKind::Static);
        assert!(file.cpu_ms() < cgi.cpu_ms());
        assert!(file.disk_ms() > cgi.disk_ms());
    }

    #[test]
    fn bad_demands_are_clamped() {
        let r = Request::new(RequestKind::Static, -5.0, f64::NAN);
        assert_eq!(r.cpu_ms(), 0.0);
        assert_eq!(r.disk_ms(), 0.0);
    }
}
