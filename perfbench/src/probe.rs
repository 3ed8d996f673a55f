//! The transport probe of the grid workloads' traced runs: a `status`
//! round trip through an in-process server, minus the same request's
//! handling time on a socket-free twin — the server's own overhead on a
//! request that runs no engine.

use std::cell::RefCell;
use std::time::Instant;

use crate::adapter::{self, Conn, ServerHandle, Twin, STATUS_REQUEST};
use crate::measure::ms_since;
use crate::spec;

pub struct ServerProbe {
    server: ServerHandle,
    conn: RefCell<Conn>,
    twin: Twin,
}

impl ServerProbe {
    pub fn start() -> Result<Self, String> {
        let server = adapter::start_server(spec::SERVE_WORKERS).map_err(|e| e.to_string())?;
        let conn = adapter::connect(server.addr()).map_err(|e| e.to_string())?;
        Ok(ServerProbe {
            server,
            conn: RefCell::new(conn),
            twin: Twin::new(),
        })
    }

    pub fn overhead_ms(&self) -> Result<f64, String> {
        let t = Instant::now();
        self.conn
            .borrow_mut()
            .roundtrip(STATUS_REQUEST)
            .map_err(|e| e.to_string())?;
        let round_trip = ms_since(t);
        let t = Instant::now();
        std::hint::black_box(self.twin.handle(STATUS_REQUEST));
        Ok(round_trip - ms_since(t))
    }

    pub fn stop(self) -> Result<(), String> {
        drop(self.conn);
        self.server.stop().map_err(|e| e.to_string())
    }
}
