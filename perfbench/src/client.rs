//! A closed-loop LDJSON client for a spawned `aa-solve serve` process.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn `bin args…` with piped stdin/stdout. The server's stderr
    /// (its EOF summary and logs) is passed through.
    pub fn spawn(bin: &Path, args: &[&str]) -> std::io::Result<Server> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::with_capacity(1 << 16, child.stdout.take().expect("piped stdout"));
        Ok(Server { child, stdin, stdout })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let w = self.stdin.as_mut().expect("stdin open until finish");
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    }

    /// Read one response line into `buf` (newline stripped).
    pub fn recv(&mut self, buf: &mut String) -> std::io::Result<()> {
        buf.clear();
        if self.stdout.read_line(buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed its stdout",
            ));
        }
        while buf.ends_with('\n') || buf.ends_with('\r') {
            buf.pop();
        }
        Ok(())
    }

    /// Close stdin, drain whatever the server still writes, and wait for
    /// it to exit. Fails unless it exits with status 0.
    pub fn finish(mut self) -> std::io::Result<()> {
        drop(self.stdin.take());
        let mut sink = String::new();
        while self.stdout.read_line(&mut sink)? > 0 {
            sink.clear();
        }
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!("server exited with {status}")))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an error path (finish() consumes stdin first):
        // never leave a server or its workers running.
        if self.stdin.is_some() {
            drop(self.stdin.take());
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The numeric `id` of a response line, read without a full parse.
/// Responses are `{"status":…,"id":N,…}` with the id the client chose.
pub fn response_id(line: &str) -> Option<u64> {
    let at = line.find("\"id\":")? + 5;
    let digits: &str = &line[at..];
    let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Spawn a server, send it one probe request and wait for the answer:
/// the time a client waits before the server is useful.
pub fn spawn_and_probe(
    bin: &Path,
    args: &[&str],
    probe: &str,
) -> std::io::Result<(Server, f64, String)> {
    let t0 = Instant::now();
    let mut server = Server::spawn(bin, args)?;
    server.send(probe)?;
    let mut line = String::new();
    server.recv(&mut line)?;
    Ok((server, t0.elapsed().as_secs_f64(), line))
}

/// One request's record from a closed-loop run.
pub struct Exchange {
    pub id: u64,
    /// Write of the request line → read of its response line.
    pub latency_us: f64,
    /// Whether the response arrived inside the measured window (after
    /// warm-up, and for a request sent before the window closed).
    pub measured: bool,
    /// When the response arrived, seconds after the loop started.
    pub at_s: f64,
    pub line: String,
}

#[derive(Default)]
pub struct LoopRun {
    pub exchanges: Vec<Exchange>,
    /// Requests sent (ids `0..sent` once every stretch is appended).
    pub sent: u64,
    /// Request bytes written, newline included.
    pub request_bytes: u64,
    /// First measured send → last response, seconds.
    pub window_s: f64,
    /// When that window opened, seconds after the loop started.
    pub window_start_s: f64,
}

impl LoopRun {
    /// Append a later stretch of the same loop (its ids follow on).
    pub fn append(&mut self, later: LoopRun) {
        self.exchanges.extend(later.exchanges);
        self.sent += later.sent;
        self.request_bytes += later.request_bytes;
        self.window_s += later.window_s;
    }
}

/// Drive `server` in a closed loop with `inflight` requests outstanding:
/// each response releases the next request. Requests sent during the
/// first `warmup` are answered and kept but not measured; after the
/// measured `window` no new requests are sent and the outstanding ones
/// drain. `next(id)` renders request `id`; ids start at `first_id`.
pub fn closed_loop(
    server: &mut Server,
    inflight: usize,
    warmup: Duration,
    window: Duration,
    first_id: u64,
    next: &mut dyn FnMut(u64) -> String,
) -> std::io::Result<LoopRun> {
    let start = Instant::now();
    let mut sent_at: Vec<(Instant, bool)> = Vec::new();
    let mut run = LoopRun::default();
    let mut window_start: Option<Instant> = None;
    let mut outstanding = 0usize;
    let mut send = |server: &mut Server, run: &mut LoopRun, sent_at: &mut Vec<(Instant, bool)>, measured: bool| {
        let line = next(first_id + run.sent);
        run.request_bytes += line.len() as u64 + 1;
        sent_at.push((Instant::now(), measured));
        server.send(&line)?;
        run.sent += 1;
        Ok::<(), std::io::Error>(())
    };
    for _ in 0..inflight {
        send(server, &mut run, &mut sent_at, false)?;
        outstanding += 1;
    }
    let mut buf = String::new();
    let mut last_recv = start;
    while outstanding > 0 {
        server.recv(&mut buf)?;
        let now = Instant::now();
        last_recv = now;
        outstanding -= 1;
        let id = response_id(&buf)
            .filter(|id| (first_id..first_id + run.sent).contains(id))
            .ok_or_else(|| std::io::Error::other(format!("response without a known id: {buf:.200}")))?;
        let (t_sent, in_window) = sent_at[(id - first_id) as usize];
        let closing = window_start.is_some_and(|w| now >= w + window);
        run.exchanges.push(Exchange {
            id,
            latency_us: now.duration_since(t_sent).as_secs_f64() * 1e6,
            measured: in_window,
            at_s: now.duration_since(start).as_secs_f64(),
            line: std::mem::take(&mut buf),
        });
        if window_start.is_none() && now >= start + warmup {
            window_start = Some(now);
        }
        if closing {
            continue;
        }
        send(server, &mut run, &mut sent_at, window_start.is_some())?;
        outstanding += 1;
    }
    // Every measured request was sent after the window opened and
    // answered by the last response, so this span holds all of them.
    let w0 = window_start.unwrap_or(start);
    run.window_s = last_recv.duration_since(w0).as_secs_f64();
    run.window_start_s = w0.duration_since(start).as_secs_f64();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_ids_are_read_from_ok_and_error_lines() {
        assert_eq!(response_id(r#"{"status":"ok","id":42,"tier":"algo2"}"#), Some(42));
        assert_eq!(response_id(r#"{"status":"error","id":7}"#), Some(7));
        assert_eq!(response_id(r#"{"status":"error","id":null}"#), None);
    }
}
