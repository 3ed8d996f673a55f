//! The TCP shell: listener, bounded job queue, worker pool, graceful
//! shutdown.
//!
//! Dependency-free networking over [`std::net::TcpListener`]. The
//! threading model:
//!
//! * one **accept loop** (non-blocking, polling the drain flag) spawns a
//!   handler thread per connection;
//! * each **handler** frames NDJSON request lines (own buffer scan — no
//!   `BufReader`, so read timeouts never lose partial lines), pushes jobs
//!   onto the **bounded queue** and writes the responses back;
//! * a fixed **worker pool** drains the queue through
//!   [`Service::handle_line`] — the sweep inside runs on the worker,
//!   under the shared cancel flag that every served sweep carries; a
//!   cold sweep searches each rank level on the worker plus helper
//!   threads of its own, which start only once the sweep has spent 1 ms
//!   alone on searches a helper could have taken.
//!
//! A full queue is answered immediately with a typed `queue_full` error
//! (the queue never blocks ingress), and an over-long line with
//! `bad_request` before the connection closes (its framing is
//! unrecoverable). Graceful shutdown (`{"op":"shutdown"}`) stops the
//! accept loop, cancels in-flight sweeps through the shared budget flag —
//! they stop at certified partial frontiers and still answer — drains the
//! queue, and joins every thread.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::protocol::{error_line, ErrorBody, MAX_REQUEST_BYTES};
use crate::service::{Service, ServiceOptions};

/// Tuning knobs of a [`Server`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServerOptions {
    /// Worker threads evaluating explorations.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue answers `queue_full`.
    pub queue: usize,
    /// Byte budget of the result cache.
    pub cache_bytes: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 2,
            queue: 32,
            cache_bytes: ServiceOptions::default().cache_bytes,
        }
    }
}

/// How often blocked loops poll the drain flag.
const POLL: Duration = Duration::from_millis(50);

/// One queued request: the raw line plus the handler's reply channel.
struct Job {
    line: String,
    reply: mpsc::Sender<String>,
}

/// A running batch exploration server; see the module docs.
pub struct Server {
    addr: SocketAddr,
    service: Arc<Service>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    queue: Option<SyncSender<Job>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from binding or configuring the listener.
    pub fn bind(addr: impl ToSocketAddrs, opts: ServerOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(Service::new(ServiceOptions {
            cache_bytes: opts.cache_bytes,
            ..ServiceOptions::default()
        }));

        let (tx, rx) = mpsc::sync_channel::<Job>(opts.queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..opts.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let service = Arc::clone(&service);
                thread::spawn(move || worker_loop(&rx, &service))
            })
            .collect();

        let accept = {
            let service = Arc::clone(&service);
            let tx = tx.clone();
            thread::spawn(move || accept_loop(&listener, &service, &tx))
        };

        Ok(Server {
            addr,
            service,
            accept: Some(accept),
            workers,
            queue: Some(tx),
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (counters, drain flag) — what tests inspect.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Blocks until the server has fully shut down: the accept loop has
    /// exited (it watches the drain flag a `shutdown` request raises),
    /// every connection has closed, the queue has drained and every
    /// worker has exited.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // All handler clones are gone once the accept loop has joined its
        // handlers; dropping the master sender ends the workers' queue.
        self.queue = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>, service: &Arc<Service>) {
    loop {
        let job = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        match job {
            Ok(job) => {
                let response = service.handle_line(&job.line);
                let _ = job.reply.send(response);
            }
            Err(_) => return, // every sender gone: shutdown complete
        }
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<Service>, tx: &SyncSender<Job>) {
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !service.is_draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(service);
                let tx = tx.clone();
                handlers.push(thread::spawn(move || {
                    handle_connection(stream, &service, &tx);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => thread::sleep(POLL),
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Frames NDJSON lines off one connection and round-trips each through
/// the job queue. Exits on EOF, an unrecoverable framing error, a write
/// failure, or (when idle) a draining server.
fn handle_connection(stream: TcpStream, service: &Arc<Service>, tx: &SyncSender<Job>) {
    let mut stream = stream;
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        // Drain complete lines first.
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = pending.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line_bytes[..nl]).into_owned();
            let line = line.trim_end_matches('\r').to_string();
            if line.is_empty() {
                continue;
            }
            let response = dispatch(line, tx);
            if stream
                .write_all(response.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .and_then(|()| stream.flush())
                .is_err()
            {
                return;
            }
        }
        if pending.len() > MAX_REQUEST_BYTES {
            // The line cap is enforced mid-read: answer once, then close
            // (the rest of the oversized line cannot be re-framed).
            let e = ErrorBody::bad_request(format!(
                "request line exceeds the {MAX_REQUEST_BYTES}-byte cap"
            ));
            let _ = stream.write_all(error_line(&e).as_bytes());
            let _ = stream.write_all(b"\n");
            let _ = stream.flush();
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // EOF
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Idle poll: once the server drains, stop waiting for
                // more requests (in-flight ones were already answered).
                if service.is_draining() && pending.is_empty() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Queues one line for a worker and waits for its response. A full
/// queue or a torn-down pool answers immediately with a typed error.
fn dispatch(line: String, tx: &SyncSender<Job>) -> String {
    let (reply_tx, reply_rx) = mpsc::channel();
    match tx.try_send(Job {
        line,
        reply: reply_tx,
    }) {
        Ok(()) => match reply_rx.recv() {
            Ok(response) => response,
            Err(_) => error_line(&ErrorBody {
                class: "shutting_down".into(),
                message: "the server shut down before answering".into(),
            }),
        },
        Err(TrySendError::Full(_)) => error_line(&ErrorBody {
            class: "queue_full".into(),
            message: "the job queue is full; retry later".into(),
        }),
        Err(TrySendError::Disconnected(_)) => error_line(&ErrorBody {
            class: "shutting_down".into(),
            message: "the server is shutting down".into(),
        }),
    }
}

/// Runs a server in the foreground: binds, then blocks until a
/// `shutdown` request completes the drain. The `on_ready` callback gets
/// the bound address before serving starts (the CLI prints it).
///
/// # Errors
///
/// As [`Server::bind`].
pub fn serve(
    addr: impl ToSocketAddrs,
    opts: ServerOptions,
    on_ready: impl FnOnce(SocketAddr),
) -> io::Result<()> {
    let server = Server::bind(addr, opts)?;
    on_ready(server.addr());
    // Park until the drain flag rises, then join everything.
    while !server.service().is_draining() {
        thread::sleep(POLL);
    }
    server.join();
    Ok(())
}
