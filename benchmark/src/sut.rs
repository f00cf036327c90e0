//! The system under test as child processes: spawn, resource usage from
//! `wait4(2)`, and the small HTTP client that talks to `loopcomm serve`.
//!
//! Children are not spawned by the benchmark process itself but by a
//! **launcher**: a second `lcbench` process started first thing, while the
//! benchmark is still a megabyte or two. Linux folds the spawning process's
//! peak RSS into the child's `ru_maxrss` at `exec`, and the benchmark grows
//! to hundreds of megabytes (inputs, reference analyses, the traced runs);
//! spawned from it, every child would report the benchmark's peak, not its
//! own. The launcher stays tiny, so the `ru_maxrss` it reads is the
//! child's.
//!
//! The protocol is lines over the launcher's stdin/stdout, one child at a
//! time (the borrow on [`Launcher`] enforces that):
//!
//! ```text
//! → stdout-file \0 stderr-file \0 program \0 arg \0 arg …
//! ← pid 1234                       (or: error <why>)
//! ← done <exited-0> <cpu-seconds> <maxrss-KiB>      once the child is reaped
//! ```
//!
//! Every child sits behind a [`Sut`] guard whose `Drop` kills and reaps it,
//! so a panicking trial leaves no `serve` process behind; and both launcher
//! and children ask the kernel to kill them when their parent dies, so a
//! benchmark killed from outside leaves none either.

use std::cell::{RefCell, RefMut};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

mod sys {
    //! libc declared the way `lc_trace::spool_v3` declares `mmap`: no libc
    //! crate. `Rusage` is Linux's `struct rusage` on 64-bit targets — two
    //! `timeval`s then fourteen `long`s, `ru_maxrss` (KiB) first.
    use std::ffi::{c_int, c_long, c_ulong};

    pub const SIGKILL: c_int = 9;
    pub const PR_SET_PDEATHSIG: c_int = 1;

    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: c_long,
        pub usec: c_long,
    }

    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss_kib: c_long,
        pub rest: [c_long; 13],
    }

    extern "C" {
        pub fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn prctl(option: c_int, arg2: c_ulong, ...) -> c_int;
    }
}

/// Ask the kernel to SIGKILL this process when the thread that spawned it
/// exits. Advisory: on failure the process merely outlives a killed parent.
fn die_with_parent() {
    // SAFETY: PR_SET_PDEATHSIG takes one integer argument and touches no
    // memory of ours; it is async-signal-safe, as `pre_exec` requires.
    unsafe {
        sys::prctl(sys::PR_SET_PDEATHSIG, sys::SIGKILL as std::ffi::c_ulong);
    }
}

/// What one finished child cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Usage {
    /// Exited normally with status 0.
    pub success: bool,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
}

/// Reap `child` with `wait4`, for its exit status and rusage.
fn reap(child: &Child) -> io::Result<(bool, f64, i64)> {
    let mut status = 0;
    let mut ru = sys::Rusage::default();
    // SAFETY: `status` and `ru` are live, writable and of the types wait4
    // fills; the pid is a child of this process that nobody else waits for
    // (`Child::wait` is never called on it).
    let pid = unsafe { sys::wait4(child.id() as i32, &mut status, 0, &mut ru) };
    if pid < 0 {
        return Err(io::Error::last_os_error());
    }
    let secs = |t: &sys::Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    // WIFEXITED && WEXITSTATUS == 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((success, secs(&ru.utime) + secs(&ru.stime), ru.maxrss_kib))
}

/// The launcher's side: serve spawn requests until stdin closes.
pub fn launcher_main() -> ExitCode {
    die_with_parent();
    let mut replies = io::stdout().lock();
    for request in io::stdin().lock().lines() {
        let Ok(request) = request else { break };
        let mut fields = request.split('\0');
        let (Some(stdout), Some(stderr), Some(program)) =
            (fields.next(), fields.next(), fields.next())
        else {
            break;
        };
        let spawned = File::create(stdout).and_then(|out| {
            let mut cmd = Command::new(program);
            cmd.args(fields)
                .stdin(Stdio::null())
                .stdout(out)
                .stderr(File::create(stderr)?);
            // SAFETY: the closure only makes an async-signal-safe syscall.
            unsafe {
                cmd.pre_exec(|| {
                    die_with_parent();
                    Ok(())
                })
            };
            cmd.spawn()
        });
        let reply = match spawned {
            Err(e) => writeln!(replies, "error {}", e.to_string().replace('\n', " ")),
            Ok(child) => writeln!(replies, "pid {}", child.id())
                .and_then(|()| replies.flush())
                .and_then(|()| reap(&child))
                .and_then(|(ok, cpu_s, kib)| writeln!(replies, "done {} {cpu_s} {kib}", ok as u8)),
        };
        if reply.and_then(|()| replies.flush()).is_err() {
            break; // the benchmark is gone
        }
    }
    ExitCode::SUCCESS
}

/// The benchmark's handle on its launcher process.
pub struct Launcher {
    child: Child,
    requests: ChildStdin,
    replies: BufReader<ChildStdout>,
}

impl Launcher {
    /// Start the launcher: this same executable, run with `--launcher`.
    pub fn start() -> io::Result<Launcher> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--launcher")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let requests = child.stdin.take().expect("stdin was piped");
        let replies = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Launcher {
            child,
            requests,
            replies,
        })
    }

    fn reply(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.replies.read_line(&mut line)? == 0 {
            return Err(io::Error::other("the launcher process died"));
        }
        Ok(line.trim_end().to_string())
    }
}

impl Drop for Launcher {
    fn drop(&mut self) {
        // The launcher exits on its own when its stdin closes; killing it
        // first just makes the wait immediate.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A running child of the launcher; killed and reaped on drop unless
/// already reaped through [`Sut::wait`] or [`Sut::kill`].
pub struct Sut<'a> {
    launcher: RefMut<'a, Launcher>,
    pid: i32,
    reaped: bool,
}

impl<'a> Sut<'a> {
    /// Spawn `bin args…` with stdout and stderr sent to files (read them
    /// after [`Sut::wait`]): no pipe can fill up and stall the child, and
    /// `serve`'s `println!` never meets a closed pipe.
    pub fn spawn(
        launcher: &'a RefCell<Launcher>,
        bin: &Path,
        args: &[&str],
        stdout: &Path,
        stderr: &Path,
    ) -> io::Result<Sut<'a>> {
        let mut fields = Vec::with_capacity(args.len() + 3);
        for p in [stdout, stderr, bin] {
            fields.push(
                p.to_str()
                    .ok_or_else(|| io::Error::other("non-UTF-8 path"))?,
            );
        }
        fields.extend(args);
        if fields.iter().any(|f| f.contains(['\0', '\n'])) {
            return Err(io::Error::other("NUL or newline in a path or argument"));
        }
        let mut launcher = launcher.borrow_mut();
        writeln!(launcher.requests, "{}", fields.join("\0"))?;
        launcher.requests.flush()?;
        let reply = launcher.reply()?;
        let pid = reply
            .strip_prefix("pid ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| io::Error::other(format!("cannot spawn {}: {reply}", bin.display())))?;
        Ok(Sut {
            launcher,
            pid,
            reaped: false,
        })
    }

    /// Block until the child exits; returns its exit status and rusage.
    pub fn wait(mut self) -> io::Result<Usage> {
        self.reaped = true;
        let reply = self.launcher.reply()?;
        let fields: Vec<&str> = reply.split(' ').collect();
        match fields.as_slice() {
            ["done", ok, cpu_s, kib] => Ok(Usage {
                success: *ok == "1",
                cpu_s: cpu_s.parse().map_err(io::Error::other)?,
                peak_rss_mb: kib.parse::<f64>().map_err(io::Error::other)? / 1024.0,
            }),
            _ => Err(io::Error::other(format!("launcher said `{reply}`"))),
        }
    }

    /// SIGKILL the child, then collect its rusage. A killed child never
    /// reports `success`.
    pub fn kill(self) -> io::Result<Usage> {
        self.signal_kill();
        self.wait()
    }

    fn signal_kill(&self) {
        // SAFETY: plain syscall. The pid is a live or zombie child of the
        // launcher until the launcher reaps it, which it reports only
        // through the reply this guard has not read yet — so the pid
        // cannot have been reused.
        unsafe {
            sys::kill(self.pid, sys::SIGKILL);
        }
    }
}

impl Drop for Sut<'_> {
    fn drop(&mut self) {
        if !self.reaped {
            self.signal_kill();
            // Consume the `done` line so the next spawn reads its own.
            let _ = self.launcher.reply();
        }
    }
}

/// The two addresses `loopcomm serve` prints on start-up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeAddrs {
    /// `host:port` of the first ingest listener.
    pub ingest: String,
    /// `host:port` of the HTTP listener.
    pub http: String,
}

/// Pick the bound addresses out of `serve`'s start-up output:
///
/// ```text
/// ingest : 127.0.0.1:40123
/// http   : http://127.0.0.1:40124/  (/metrics, /tenants, …)
/// ```
pub fn parse_serve_addrs(stdout: &str) -> Option<ServeAddrs> {
    let (mut ingest, mut http) = (None, None);
    // A line still being written has no newline yet: leave it for later.
    for line in stdout.split_inclusive('\n').filter(|l| l.ends_with('\n')) {
        if let Some(rest) = line.strip_prefix("ingest :") {
            ingest.get_or_insert_with(|| rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("http   :") {
            let url = rest.split_whitespace().next().unwrap_or("");
            let addr = url
                .strip_prefix("http://")
                .unwrap_or(url)
                .trim_end_matches('/');
            if !addr.is_empty() {
                http.get_or_insert_with(|| addr.to_string());
            }
        }
    }
    Some(ServeAddrs {
        ingest: ingest?,
        http: http?,
    })
}

/// Poll `serve`'s stdout file until both addresses have been printed.
pub fn wait_for_serve_addrs(stdout: &Path) -> io::Result<ServeAddrs> {
    const DEADLINE: Duration = Duration::from_secs(10);
    let start = Instant::now();
    loop {
        if let Some(addrs) = parse_serve_addrs(&std::fs::read_to_string(stdout)?) {
            return Ok(addrs);
        }
        if start.elapsed() > DEADLINE {
            return Err(io::Error::other(
                "`loopcomm serve` did not print its ingest and http addresses within 10 s",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `GET path` over HTTP/1.0; returns the body of a 200 response.
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    let mut sock = TcpStream::connect(addr)?;
    write!(sock, "GET {path} HTTP/1.0\r\n\r\n")?;
    let mut response = String::new();
    sock.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::other(format!("GET {path}: malformed response")))?;
    if !head.starts_with("HTTP/1.0 200") {
        let status = head.lines().next().unwrap_or("");
        return Err(io::Error::other(format!("GET {path}: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_start_up_lines_yield_both_addresses() {
        let out = "ingest : 127.0.0.1:40123\ningest : 127.0.0.1:40999\n\
                   http   : http://127.0.0.1:40124/  (/metrics, /tenants, /tenants/<t>/report)\n\
                   stream with: loopcomm stream <file.lctrace> --connect 127.0.0.1:40123\n";
        // The first ingest listener wins; the URL loses scheme and slash.
        assert_eq!(
            parse_serve_addrs(out),
            Some(ServeAddrs {
                ingest: "127.0.0.1:40123".into(),
                http: "127.0.0.1:40124".into()
            })
        );
    }

    #[test]
    fn partial_or_unrelated_output_yields_nothing_yet() {
        for out in [
            "",
            "ingest : 127.0.0.1:40123\n",
            "ingest : 127.0.0.1:40123\nhttp   : http://127.0.0.1:401",
            "ingest : 127.0.0.1:40123\nhttp   :\n",
            "warning: something\ningest: no space\n",
        ] {
            assert_eq!(parse_serve_addrs(out), None, "{out:?}");
        }
    }
}
