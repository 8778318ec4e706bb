//! The measured fleet: two `serve` shards behind one `dispatch` front
//! door, each a real child process at default flags on an ephemeral
//! port.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use fq_serve::client::ShardConn;

use crate::procfs;

/// How long a fleet process may take to print its address and answer
/// `/v1/healthz`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// Environment the binaries read for defaults; cleared so the fleet runs
/// at its documented defaults whatever the caller's shell exports.
const CLEARED_ENV: [&str; 7] = [
    "FQ_SERVE_ADDR",
    "FQ_DISPATCH_ADDR",
    "FQ_CACHE_DIR",
    "FQ_AUTH_TOKEN",
    "FQ_FAULT_PLAN",
    "FQ_THREADS",
    "FQ_SUITE_DIR",
];

/// One running fleet process.
struct Proc {
    child: Child,
    /// Held open so a late write from the child never meets a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

/// Two shards and a dispatcher; every process is killed and reaped on
/// drop.
pub struct Fleet {
    shards: Vec<Proc>,
    dispatch: Option<Proc>,
}

/// Per-process CPU readings of a fleet, in ms.
#[derive(Clone, Debug)]
pub struct CpuReading {
    /// One entry per shard.
    pub shards: Vec<f64>,
    /// The dispatcher.
    pub dispatch: f64,
}

impl CpuReading {
    /// Shard + dispatcher total.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.shards.iter().sum::<f64>() + self.dispatch
    }

    /// `self - earlier`, per process.
    #[must_use]
    pub fn since(&self, earlier: &CpuReading) -> CpuReading {
        CpuReading {
            shards: self
                .shards
                .iter()
                .zip(&earlier.shards)
                .map(|(now, then)| now - then)
                .collect(),
            dispatch: self.dispatch - earlier.dispatch,
        }
    }
}

/// Where the `serve` and `dispatch` executables live: next to this
/// benchmark's own executable (one cargo target directory builds all
/// three).
fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "own executable has no parent directory".to_string())
}

fn spawn(bin: &Path, args: &[String], banner: &str) -> Result<Proc, String> {
    let mut command = Command::new(bin);
    command
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for key in CLEARED_ENV {
        command.env_remove(key);
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    // The binaries announce `<banner> http://HOST:PORT (...)` once bound.
    let mut line = String::new();
    let addr = match stdout.read_line(&mut line) {
        Ok(n) if n > 0 => line
            .strip_prefix(banner)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string),
        _ => None,
    };
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!(
            "{} did not announce its address (got `{}`)",
            bin.display(),
            line.trim_end()
        ));
    };
    Ok(Proc {
        child,
        _stdout: stdout,
        addr,
    })
}

fn wait_healthy(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + BOOT_TIMEOUT;
    let mut conn = ShardConn::new(addr);
    conn.set_read_timeout(Duration::from_secs(5));
    loop {
        if let Ok(response) = conn.request("GET", "/v1/healthz", None) {
            if response.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never answered /v1/healthz"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl Fleet {
    /// Boots two shards and a dispatcher over them and waits until all
    /// three answer `/v1/healthz`.
    ///
    /// # Errors
    ///
    /// When a binary is missing, fails to bind, or never becomes healthy.
    pub fn boot() -> Result<Fleet, String> {
        let dir = bin_dir()?;
        let ephemeral = || vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        let mut fleet = Fleet {
            shards: Vec::new(),
            dispatch: None,
        };
        for _ in 0..2 {
            fleet.shards.push(spawn(
                &dir.join("serve"),
                &ephemeral(),
                "fq-serve listening on http://",
            )?);
        }
        let mut args = ephemeral();
        for shard in &fleet.shards {
            args.push("--shard".to_string());
            args.push(shard.addr.clone());
        }
        fleet.dispatch = Some(spawn(
            &dir.join("dispatch"),
            &args,
            "fq-dispatch listening on http://",
        )?);
        for proc in fleet.procs() {
            wait_healthy(&proc.addr)?;
        }
        Ok(fleet)
    }

    fn procs(&self) -> impl Iterator<Item = &Proc> {
        self.shards.iter().chain(self.dispatch.as_ref())
    }

    fn dispatch(&self) -> &Proc {
        self.dispatch
            .as_ref()
            .expect("a booted fleet has a dispatcher")
    }

    /// The dispatcher's address — the front door clients use.
    #[must_use]
    pub fn front(&self) -> &str {
        &self.dispatch().addr
    }

    /// The shards' addresses.
    #[must_use]
    pub fn shard_addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    /// CPU used so far by every fleet process.
    ///
    /// # Errors
    ///
    /// When a process has exited.
    pub fn cpu(&self) -> Result<CpuReading, String> {
        let read = |proc: &Proc| {
            procfs::cpu_ms(proc.child.id()).map_err(|e| format!("fleet process gone: {e}"))
        };
        Ok(CpuReading {
            shards: self.shards.iter().map(read).collect::<Result<_, _>>()?,
            dispatch: read(self.dispatch())?,
        })
    }

    /// Peak resident set of each fleet process (shards, then the
    /// dispatcher), in MiB.
    ///
    /// # Errors
    ///
    /// When a process has exited.
    pub fn hwm_mb(&self) -> Result<Vec<f64>, String> {
        self.procs()
            .map(|proc| {
                procfs::hwm_mb(proc.child.id()).map_err(|e| format!("fleet process gone: {e}"))
            })
            .collect()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Front door first, so no shard sees a forward after its peer died.
        for proc in self.dispatch.iter_mut().chain(self.shards.iter_mut()) {
            let _ = proc.child.kill();
            let _ = proc.child.wait();
        }
    }
}
